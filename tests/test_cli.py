"""Exit codes, output formats, and the file evaluation path."""

import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from steencalc import InvalidArgument, corpus, dsl, runner
from steencalc.cli import CLOSED_PIPE, _build_parser, _query_from_args, main
from steencalc.runner import execute_query

from references import data_file_path


def test_apply_against_builtin_ring(capsys):
    code = main(["apply", "Sq^1", "w1", "--ring", "MO3", "--expect", "w1^2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "w1^2" in out


def test_failed_expectation_is_exit_1(capsys):
    code = main(["apply", "Sq^1", "w1", "--ring", "MO3", "--expect", "w2"])
    assert code == 1
    assert "w1^2" in capsys.readouterr().out


def test_unknown_ring_is_exit_2(capsys):
    code = main(["apply", "Sq^1", "w1", "--ring", "NOSUCH"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")


def test_parse_error_is_exit_2(capsys):
    code = main(["apply", "Sq^1", "w1 +", "--ring", "MO3"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_obstruction_firing_without_expect_is_exit_1(capsys):
    args = ["obstruct", "frobenius", "y1^3*y2 - y1*y2^3", "--ring", "CLASSIFYING3",
            "--q", "2", "--twist", "2"]
    assert main(args) == 1
    capsys.readouterr()
    assert main(args + ["--expect", "not-in-image"]) == 0
    capsys.readouterr()
    # 1849 = 43^2: Miller-Rabin rejects it, its square root is a prime
    assert main(["obstruct", "frobenius", "x1", "--q", "1849", "--ring", "CLASSIFYING2",
                 "--expect", "not-in-image"]) == 0


def test_odd_obstruction_flows(capsys):
    assert main(["obstruct", "odd", "s*t", "--ring", "PROP5",
                 "--max-degree", "3", "--expect", "nonvanishing"]) == 0
    capsys.readouterr()
    assert main(["obstruct", "odd", "b*w^3", "--ring", "REALFOURFOLD",
                 "--max-degree", "5", "--expect", "vanishes"]) == 0


def test_weird_operator_flow(capsys):
    assert main(["obstruct", "weird", "b*w^3", "--ring", "REALFOURFOLD",
                 "--codim", "2", "--which", "2", "--expect", "b*w^6"]) == 0
    capsys.readouterr()
    assert main(["obstruct", "weird", "b*w^3", "--ring", "REALFOURFOLD",
                 "--codim", "2", "--which", "2", "--expect", "0"]) == 1


def test_adem_subcommand(capsys):
    assert main(["adem", "Sq^2 Sq^2", "--expect", "Sq^3 Sq^1"]) == 0
    capsys.readouterr()
    assert main(["adem", "P^1 P^1", "--prime", "3", "--expect", "2 P^2"]) == 0
    capsys.readouterr()
    assert main(["adem", "Sq^1 Sq^1"]) == 0
    assert "0" in capsys.readouterr().out
    assert main(["adem", "P^1", "--prime", "1000000000000000003"]) == 0
    assert capsys.readouterr().out.endswith("  = P^1\n")


def test_wu_check_subcommand(capsys):
    assert main(["wu-check", "--n", "2", "--m", "1", "--ring", "PROJ2_2"]) == 0
    capsys.readouterr()
    assert main(["wu-check", "--n", "3", "--m", "2", "--ring", "PROJ3_3"]) == 0


def test_json_output_is_deterministic(capsys):
    args = ["--format", "json", "apply", "Sq^2", "s", "--ring", "MO3"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["ok"] is True
    assert payload["results"]


def test_structured_alias_matches_json(capsys):
    plain = ["--format", "json", "normalize", "s^2", "--ring", "MO3"]
    alias = ["--format", "json-like-structured", "normalize", "s^2", "--ring", "MO3"]
    assert main(plain) == 0
    a = capsys.readouterr().out
    assert main(alias) == 0
    b = capsys.readouterr().out
    assert a == b


def test_json_ok_false_on_failure(capsys):
    code = main(["--format", "json", "apply", "Sq^1", "w1", "--ring", "MO3",
                 "--expect", "w2"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False


def test_run_file(tmp_path, capsys):
    path = tmp_path / "session.steen"
    path.write_text(
        "ring R {\n"
        "  prime = 2;\n"
        "  gen a deg=1;\n"
        "}\n"
        'apply "Sq^1" to a in R expect a^2;\n'
        "normalize a^2 + a^2 in R expect 0;\n"
        'apply "Sq^2" to s in MO3 expect w2*s;\n',
        encoding="utf-8",
    )
    assert main(["run", str(path)]) == 0
    assert "a^2" in capsys.readouterr().out


def test_run_missing_file(capsys):
    assert main(["run", "/nonexistent/x.steen"]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_file_with_bundle(tmp_path, capsys):
    path = tmp_path / "bundle.steen"
    path.write_text(
        "ring P {\n"
        "  prime = 2;\n"
        "  gen w deg=1;\n"
        "  gen l deg=2 twist=1;\n"
        "  rule l^3 = 0;\n"
        "  action Sq^1(l) = w*l;\n"
        "  omega = w;\n"
        "}\n"
        "bundle E in P {\n"
        "  rank = 1;\n"
        "  trunc = 6;\n"
        "  chern 1 = l;\n"
        "}\n"
        "charclass wet of E;\n"
        'charclass w of E expect "[0] 1; [2] l";\n',
        encoding="utf-8",
    )
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "  = [0] 1; [1] w; [2] l\n" in out
    assert 'charclass w of E expect "[0] 1; [2] l";\n  = [0] 1; [2] l\n  expected: ok\n' in out
    path.write_text(path.read_text(encoding="utf-8").replace('"[0] 1; [2] l"', '"[0] 1"'),
                    encoding="utf-8")
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().out.endswith(
        "  = [0] 1; [2] l\n  EXPECTATION FAILED: wanted [0] 1\n")


@pytest.mark.parametrize("name", corpus.scenario_names())
def test_run_each_shipped_file(name, capsys):
    assert main(["run", data_file_path(name)]) == 0
    capsys.readouterr()


def test_corpus_list_and_run(capsys):
    assert main(["corpus", "list"]) == 0
    out = capsys.readouterr().out
    assert "MO3" in out and "CLASSIFYING5" in out
    assert main(["corpus", "run", "MO5"]) == 0
    assert "pass" in capsys.readouterr().out
    assert main(["corpus", "run"]) == 0


def test_corpus_list_takes_no_name(tmp_path, capsys):
    for argv in (["corpus", "list", "MO3"], ["--format", "json", "corpus", "list", "MO3"]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: corpus list takes no scenario name\n")
    path = tmp_path / "list.steen"
    path.write_text("corpus list MO3;\n", encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: 1:13: found 'MO3' (expected ';')\n")


def test_corpus_unknown_scenario(capsys):
    assert main(["corpus", "run", "NOSUCH"]) == 2


def test_rings_file_takes_priority(tmp_path, capsys):
    path = tmp_path / "rings.steen"
    path.write_text(
        "ring MO3 {\n"
        "  prime = 2;\n"
        "  gen z deg=4 twist=2;\n"
        "  action Sq^1(z) = 0;\n"
        "  action Sq^2(z) = 0;\n"
        "  action Sq^3(z) = 0;\n"
        "}\n",
        encoding="utf-8",
    )
    code = main(["apply", "Sq^4", "z", "--ring", "MO3", "--rings", str(path),
                 "--expect", "z^2"])
    assert code == 0


def test_python_dash_m_runs_the_cli(capsys):
    assert main(["corpus", "list"]) == 0
    want = capsys.readouterr().out
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-m", "steencalc", "corpus", "list"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == want


# cli.main(argv) in a fresh interpreter; prints its status, its stdout and
# which of the modules a one-shot run should not need it imported
_ONE_SHOT = """
import contextlib, io, json, sys
from steencalc import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    status = cli.main(sys.argv[1:])
unneeded = ("argparse", "dataclasses", "gettext", "inspect", "typing")
print(json.dumps([status, out.getvalue(), [m for m in unneeded if m in sys.modules]]))
"""


def _one_shot(argv):
    """[status, stdout, unneeded modules loaded] of one run under -S, so
    that no .pth file preloads modules, with the engine from src."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _ONE_SHOT, *argv],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_a_one_shot_run_imports_no_code_generation_and_no_argparse():
    assert _one_shot(["adem", "Sq^2 Sq^2"]) == [0, 'adem "Sq^2 Sq^2";\n  = Sq^3 Sq^1\n', []]


def test_an_argv_only_argparse_reads_still_loads_it():
    status, out, loaded = _one_shot(
        ["apply", "Sq^1", "x1", "--ring=CLASSIFYING2", "--expect", "x1^2"])
    assert (status, out) == (0, 'apply "Sq^1" to x1 in CLASSIFYING2 expect x1^2;\n'
                                "  = x1^2\n  expected: ok\n")
    assert "argparse" in loaded


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_closed_stdout_exits_quietly(fmt, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["--format", fmt, "corpus", "run", "CLASSIFYING2"]) == CLOSED_PIPE == 141
    assert capsys.readouterr().err == ""


def test_closed_pipe_leaves_no_traceback():
    # the reader is gone long before the corpus is written, so the write,
    # and the flush at exit, meet a closed pipe
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "steencalc", "--format", "json", "corpus", "run", "all"],
        env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait() == CLOSED_PIPE
    assert err == b""


# ------------------------------------------- arguments outside their range


BAD_ARGUMENTS = {
    "wu-m-out-of-range": (
        ["wu-check", "--n", "1", "--m", "2", "--ring", "PROJ1_2"], "need 0 <= m <= n"),
    "wu-y-on-the-fiber": (
        ["wu-check", "--n", "1", "--m", "1", "--ring", "PROJ1_2", "--y", "l"],
        "y must be a base class (no hyperplane factor)"),
    "frobenius-q-not-prime-to-l": (
        ["obstruct", "frobenius", "x1", "--q", "2", "--ring", "CLASSIFYING2"],
        "q must be prime to 2"),
    "hs-q-not-prime-to-l": (
        ["obstruct", "hs", "x1", "--q", "2", "--ring", "CLASSIFYING2"],
        "q must be prime to 2"),
    "frobenius-q-not-a-prime-power": (
        ["obstruct", "frobenius", "x1", "--q", "15", "--ring", "CLASSIFYING2"],
        "q must be a prime power, got 15"),
    "frobenius-q-without-small-factors": (
        # 2021 = 43 * 47 reaches the composite branch of Miller-Rabin
        ["obstruct", "frobenius", "x1", "--q", "2021", "--ring", "CLASSIFYING2"],
        "q must be a prime power, got 2021"),
    "frobenius-q-missing": (
        ["obstruct", "frobenius", "x1", "--ring", "CLASSIFYING2"], "obstruct frobenius needs --q"),
    "weird-codim-missing": (
        ["obstruct", "weird", "x1", "--ring", "CLASSIFYING2"], "obstruct weird needs --codim"),
    "odd-inhomogeneous": (
        ["obstruct", "odd", "x1 + x1*x2", "--ring", "CLASSIFYING2"],
        "query input must be degree-homogeneous"),
    "wu-n-not-the-fiber": (
        ["wu-check", "--n", "5", "--m", "0", "--ring", "PROJ2_2"],
        "ring PROJ2_2 presents a fiber of dimension 2, not 5"),
    "frobenius-q-one": (
        ["obstruct", "frobenius", "x1", "--q", "1", "--ring", "CLASSIFYING2"],
        "q must be a prime power, got 1"),
    "frobenius-q-negative": (
        ["obstruct", "frobenius", "x1", "--q", "-3", "--ring", "CLASSIFYING2"],
        "q must be a prime power, got -3"),
    "hs-q-negative": (
        ["obstruct", "hs", "x1", "--q", "-3", "--ring", "CLASSIFYING2"],
        "q must be a prime power, got -3"),
    "odd-max-degree-negative": (
        ["obstruct", "odd", "x1", "--max-degree", "-5", "--ring", "CLASSIFYING2"],
        "max degree must be >= 0, got -5"),
    "weird-at-odd-prime": (
        ["obstruct", "weird", "v", "--codim", "1", "--ring", "PROJ1_3"],
        "the omega-corrected operators live at the prime 2"),
    "adem-prime-not-prime": (["adem", "Sq^1", "--prime", "4"], "not a prime: 4"),
    "adem-prime-large-composite": (
        ["adem", "P^1", "--prime", "1000000000000000001"], "not a prime: 1000000000000000001"),
    "adem-prime-above-the-bound": (
        ["adem", "P^1", "--prime", "3317044064679887385961981"],
        "cannot decide whether 3317044064679887385961981 is prime: the test is exact only "
        "below 3317044064679887385961981"),
    "frobenius-q-above-the-bound": (
        ["obstruct", "frobenius", "x1", "--q", "3317044064679887385961981",
         "--ring", "CLASSIFYING2"],
        "cannot decide whether 3317044064679887385961981 is prime: the test is exact only "
        "below 3317044064679887385961981"),
}


@pytest.mark.parametrize("case", sorted(BAD_ARGUMENTS))
def test_bad_query_argument_is_exit_2(case, capsys):
    argv, message = BAD_ARGUMENTS[case]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: %s\n" % message
    assert captured.out == ""


def test_bad_query_argument_in_a_file_is_exit_2(tmp_path, capsys):
    path = tmp_path / "which.steen"
    path.write_text(
        "obstruct weird --codim 1 --which 3 on x1 in CLASSIFYING2;\n", encoding="utf-8"
    )
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == "error: which must be 1 or 2\n"
    # the degree bound 2*trunc must fit the packed degree tag: trunc < 2^29
    bundle = tmp_path / "trunc.steen"
    bundle.write_text(
        "ring N { prime = 2; gen t deg=2; rule t^3 = 0; }\n"
        "bundle E in N { rank = 1; trunc = 536870912; chern 1 = t; }\n"
        "charclass w of E;\n",
        encoding="utf-8",
    )
    assert main(["run", str(bundle)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: truncation 536870912 is not below 536870912 at 2:1\n"
    assert captured.out == ""
    # Chern class degrees are checked when the bundle is used
    bundle.write_text(
        "ring N { prime = 2; gen w deg=1; omega = w; }\n"
        "bundle E in N { rank = 1; chern 1 = w; }\n",
        encoding="utf-8",
    )
    assert main(["charclass", "w", "E", "--rings", str(bundle)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: c_1 must be homogeneous of degree 2\n"
    assert captured.out == ""
    assert main(["charclass", "w", "X", "--rings", str(bundle)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: no bundle 'X' in scope\n"
    assert captured.out == ""


# (a query in a file, the matching subcommand, the error): argparse reads only
# a command's shape, so both front ends reach the one check behind
# execute_query
BAD_VALUES = {
    "weird-which-3": (
        "obstruct weird --codim 2 --which 3 on x1 in CLASSIFYING2;",
        ["obstruct", "weird", "x1", "--codim", "2", "--which", "3", "--ring", "CLASSIFYING2"],
        "which must be 1 or 2"),
    "wu-expect-maybe": (
        "wu-check --n 2 --m 1 in PROJ2_2 expect maybe;",
        ["wu-check", "--n", "2", "--m", "1", "--ring", "PROJ2_2", "--expect", "maybe"],
        "wu-check cannot give 'maybe' (expected true or false)"),
    "odd-expect-in-image": (
        "obstruct odd on x1 in CLASSIFYING2 expect in-image;",
        ["obstruct", "odd", "x1", "--ring", "CLASSIFYING2", "--expect", "in-image"],
        "obstruct odd cannot give 'in-image' (expected vanishes or nonvanishing)"),
    "frobenius-expect-vanishes": (
        "obstruct frobenius --q 3 on x1 in CLASSIFYING2 expect vanishes;",
        ["obstruct", "frobenius", "x1", "--q", "3", "--ring", "CLASSIFYING2",
         "--expect", "vanishes"],
        "obstruct frobenius cannot give 'vanishes' (expected in-image or not-in-image)"),
    "hs-expect-typo": (
        "obstruct hs --q 3 on x1 in CLASSIFYING2 expect vanish;",
        ["obstruct", "hs", "x1", "--q", "3", "--ring", "CLASSIFYING2", "--expect", "vanish"],
        "obstruct hs cannot give 'vanish' (expected vanishes or nonvanishing)"),
    "odd-unread-which-and-q": (
        "obstruct odd --q 4 --which 7 on x1^3*x2^3 in CLASSIFYING2 expect vanishes;",
        ["obstruct", "odd", "x1^3*x2^3", "--ring", "CLASSIFYING2", "--q", "4", "--which", "7",
         "--expect", "vanishes"],
        "obstruct odd does not read --which, --q"),
    "frobenius-unread-codim": (
        "obstruct frobenius --codim 2 --q 3 on x1 in CLASSIFYING2;",
        ["obstruct", "frobenius", "x1", "--codim", "2", "--q", "3", "--ring", "CLASSIFYING2"],
        "obstruct frobenius does not read --codim"),
    "hs-unread-max-degree": (
        "obstruct hs --q 3 --max-degree 9 on x1 in CLASSIFYING2;",
        ["obstruct", "hs", "x1", "--q", "3", "--max-degree", "9", "--ring", "CLASSIFYING2"],
        "obstruct hs does not read --max-degree"),
    "weird-unread-q": (
        "obstruct weird --codim 2 --q 3 on x1 in CLASSIFYING2;",
        ["obstruct", "weird", "x1", "--codim", "2", "--q", "3", "--ring", "CLASSIFYING2"],
        "obstruct weird does not read --q"),
    # at an odd prime every monomial twist must match the query's twist mod
    # l - 1; left out, the twist is the smallest monomial twist
    "frobenius-twist-mismatch": (
        "obstruct frobenius --q 2 on x1*x2 in CLASSIFYING3 twist = 1;",
        ["obstruct", "frobenius", "x1*x2", "--q", "2", "--ring", "CLASSIFYING3", "--twist", "1"],
        "monomial x1*x2 has twist 2 != 1 mod 2"),
    "frobenius-mixed-twists": (
        "obstruct frobenius --q 2 on x1*x2 + y1 in CLASSIFYING3;",
        ["obstruct", "frobenius", "x1*x2 + y1", "--q", "2", "--ring", "CLASSIFYING3"],
        "monomial x1*x2 has twist 2 != 1 mod 2"),
}


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_bad_value_is_one_error_from_a_file_and_a_subcommand(case, tmp_path, capsys):
    source, argv, message = BAD_VALUES[case]
    path = tmp_path / "query.steen"
    path.write_text(source + "\n", encoding="utf-8")
    for args in (["run", str(path)], argv):
        assert main(args) == 2
        assert capsys.readouterr() == ("", "error: %s\n" % message)


def test_impossible_verdict_from_the_library_is_the_same_error():
    query = dsl.WuQuery(2, 1, "PROJ2_2", expect="maybe")
    with pytest.raises(InvalidArgument,
                       match=r"^wu-check cannot give 'maybe' \(expected true or false\)$"):
        execute_query(query, corpus.resolve_ring)


def test_a_bad_verdict_fails_before_the_computation(monkeypatch):
    def refuse(x, max_degree):
        raise AssertionError("the odd check ran")
    monkeypatch.setattr(runner, "odd_vanishing_check", refuse)
    query = dsl.ObstructQuery("odd", dsl.parse_poly("x1^5*x2^5"), "CLASSIFYING2",
                              max_degree=1000, expect="in-image")
    with pytest.raises(InvalidArgument, match=r"^obstruct odd cannot give 'in-image' "):
        execute_query(query, corpus.resolve_ring)


@pytest.mark.parametrize("argv, source", [
    (["adem", "Sq^2"], 'adem "Sq^2";'),
    (["obstruct", "weird", "x1", "--codim", "1", "--ring", "R"],
     "obstruct weird --codim 1 --which 2 on x1 in R;"),
    (["obstruct", "odd", "x1", "--ring", "R"], "obstruct odd on x1 in R;"),
    (["wu-check", "--n", "1", "--m", "0", "--ring", "R"], "wu-check --n 1 --m 0 in R;"),
])
def test_left_out_options_take_the_query_class_defaults(argv, source):
    query = _query_from_args(_build_parser().parse_args(argv))
    assert query == dsl.parse(source).queries[0]
    assert dsl.render_query(query) == source


def test_non_prime_in_a_file_is_exit_2(tmp_path, capsys):
    path = tmp_path / "adem.steen"
    path.write_text('adem "Sq^1" prime = 4;\n', encoding="utf-8")
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: not a prime: 4\n"
    assert captured.out == ""


# ----------------------------------------- one reduction per polynomial term


def test_large_exponents_normalise_at_once(capsys):
    assert main(["normalize", "x1^200000000", "--ring", "CLASSIFYING2"]) == 0
    assert capsys.readouterr().out.endswith("  = x1^200000000\n")
    assert main(["normalize", "x1^1073741824", "--ring", "CLASSIFYING2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: exponent 1073741824 outside 0..1073741823\n"
    assert captured.out == ""


def test_long_rewrite_chain_normalises(capsys):
    # s^2 = w3*s applied 4999 times, one rewrite round each
    assert main(["normalize", "s^5000", "--ring", "MO3"]) == 0
    assert capsys.readouterr().out.endswith("  = w3^4999*s\n")


# ------------------------------------- per-process parser and program caches


def _ring_file(path, gen):
    path.write_text(
        "ring R {\n  prime = 2;\n  gen %s deg=1;\n}\n" % gen, encoding="utf-8"
    )


def test_edited_rings_file_is_seen_by_the_next_call(tmp_path, capsys):
    path = tmp_path / "rings.steen"
    _ring_file(path, "a")
    assert main(["normalize", "a^2", "--ring", "R", "--rings", str(path)]) == 0
    assert "a^2" in capsys.readouterr().out
    _ring_file(path, "b")
    assert main(["normalize", "b^2", "--ring", "R", "--rings", str(path)]) == 0
    assert "b^2" in capsys.readouterr().out
    assert main(["normalize", "a^2", "--ring", "R", "--rings", str(path)]) == 2
    assert "unknown generator 'a'" in capsys.readouterr().err


def test_syntax_errors_in_a_rings_file_are_not_cached(tmp_path, capsys):
    path = tmp_path / "broken.steen"
    path.write_text("ring R {\n  prime = 2;\n  gen a deg=;\n}\n", encoding="utf-8")
    argv = ["normalize", "a", "--ring", "R", "--rings", str(path)]
    errors = []
    for _ in range(2):
        assert main(argv) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0] == "error: 3:13: found ';' (expected a degree)\n"


def test_reused_parser_keeps_no_state_between_calls(capsys):
    plain = ["--format", "json", "apply", "Sq^1", "l", "--ring", "P2REAL"]
    assert main(plain + ["--expect", "w*l"]) == 0
    assert "expect w*l" in capsys.readouterr().out
    assert main(plain) == 0
    reused = capsys.readouterr().out
    _build_parser.cache_clear()
    assert main(plain) == 0
    assert reused == capsys.readouterr().out
    assert "twist" not in reused


# ------------------------------------------------------------ golden output

# sha256 of whole outputs that no change should alter by accident; help text
# is wrapped to the terminal width, so it is taken at 80 columns
GOLDEN = {
    ("corpus", "run", "all"):
        "3795eea8a9a5fb5ddc0572e023c88750035f6198119e9b002239e54d5f614894",
    ("--format", "json", "corpus", "run", "all"):
        "4f18e8a75075f38789839dad49aaac2c843d33f06b44b46ecd4bce11e2acfa42",
    ("-h",):
        "ad38277ddc103d230d4710bfa29a8b5e10ce8cb0c5b8f27a3dd77a07adb39c6c",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN), ids=" ".join)
def test_output_matches_its_golden_hash(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(list(argv))
    except SystemExit as exc:  # -h exits from argparse
        code = exc.code
    assert code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[argv]
