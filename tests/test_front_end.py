"""The command line's front end: a plain argv is read straight from the verb
table exactly as argparse reads it, help and usage errors keep their bytes,
the JSON payload is the bytes json.dumps gives for the records as read, and
a source file that is not UTF-8 is an input error."""

import contextlib
import hashlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from steencalc import SteencalcError, corpus, dsl, runner
from steencalc.cli import (_FORMATS, _build_parser, _emit, _read_argv,
                           _verbs, main)


def _argparse_read(argv):
    """vars of argparse's namespace for argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(_build_parser().parse_args(argv))
        except SystemExit:
            return None


def _same_as_argparse(argv):
    """True when the direct path read argv, False when it declined; either
    way it gives nothing argparse does not."""
    direct = _read_argv(argv)
    if direct is not None:
        assert vars(direct) == _argparse_read(argv), argv
    return direct is not None


# ------------------------------------------------- the direct path's parity

# values for options and positionals: int() reads " 7", "1_000", "٧" and
# "+7" but not "0x10", and argparse reads "-1" as a value but "-x1 + x2",
# "-" and "--" in their own ways; each odd value comes up one time in five
TEXT = (["x1", "x1*x2", "Sq^1", "R", "", " 7"], ["-x1 + x2", "-1", "-", "--"])
NUMBERS = (["3", "0", " 7", "1_000", "٧", "+7"], ["0x10", "-1", "", "three"])
MUTATIONS = ["none"] * 9 + ["prefix", "equals", "dashdash", "repeat", "unknown", "drop",
                            "help", "extra", "format"]


@st.composite
def argvs(draw, verb):
    """An argv for verb: its positionals in order, its options (the
    required ones and some others) in any order among them, perhaps
    --format first, and then at most one change that makes it not plain:
    an option by prefix or as --opt=value, a --, a repeated or unknown
    option, a word left out or added, -h, or --format after the verb."""
    arguments = _verbs()[verb][2]

    def value(keywords):
        plain, odd = NUMBERS if "type" in keywords else TEXT
        plain = list(keywords.get("choices", plain))
        return draw(st.sampled_from(odd if draw(st.integers(0, 4)) == 0 else plain))

    positionals = [[value(kw)] for name, kw in arguments.items()
                   if name[0] != "-" and ("nargs" not in kw or draw(st.booleans()))]
    options = [[name, value(kw)] for name, kw in arguments.items()
               if name[0] == "-" and (kw.get("required") or draw(st.booleans()))]
    units = draw(st.permutations(options + [None] * len(positionals)))
    units = [u if u is not None else positionals.pop(0) for u in units]
    mutation = draw(st.sampled_from(MUTATIONS))
    at = draw(st.integers(0, len(units)))
    picked = draw(st.sampled_from(options)) if options else None
    if mutation == "prefix" and picked:
        picked[0] = picked[0][:draw(st.integers(3, len(picked[0])))]
    elif mutation == "equals" and picked:
        picked[:] = ["%s=%s" % tuple(picked)]
    elif mutation == "repeat" and picked:
        units.insert(at, [picked[0], value(arguments[picked[0]])])
    elif mutation == "drop" and units:
        del units[min(at, len(units) - 1)]
    elif mutation != "none":
        units.insert(at, {"dashdash": ["--"], "unknown": ["--bogus", "3"], "help": ["-h"],
                          "extra": ["x1"], "format": ["--format", "json"]}.get(mutation, []))
    head = draw(st.sampled_from([[], [], ["--format", "json"], ["--format", "text"],
                                 ["--format", "json-like-structured"], ["--format", "xml"],
                                 ["--form", "json"], ["--format=json"]]))
    return head + [verb] + [word for unit in units for word in unit]


@pytest.mark.parametrize("verb", sorted(_verbs()))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_direct_path_declines_or_reads_as_argparse(verb, data):
    _same_as_argparse(data.draw(argvs(verb)))


# Plain argvs the direct path must read: options in any order, by full name,
# with every value form that int() and the choices accept.
PLAIN = [
    ["run", "queries.steen"],
    ["--format", "json", "run", "queries.steen"],
    ["apply", "Sq^3 Sq^1", "x1*x2", "--ring", "CLASSIFYING2"],
    ["apply", "--ring", "CLASSIFYING2", "Sq^1", "--expect", "x1^2", "x1"],
    ["--format", "json-like-structured", "apply", "Sq^1", "x1", "--rings", "r.steen",
     "--ring", "R"],
    ["normalize", "x1 + x1", "--ring", "CLASSIFYING2", "--expect", "0"],
    ["adem", "Sq^2 Sq^2", "--prime", "2"],
    ["adem", "P^1 P^1", "--prime", " 3", "--expect", "2 P^2"],
    ["adem", "P^1", "--prime", "٧"],
    ["adem", "P^1", "--prime", "+7"],
    ["adem", "P^1", "--prime", "1_000"],
    ["obstruct", "odd", "x1", "--ring", "CLASSIFYING2", "--max-degree", "9"],
    ["obstruct", "--q", "3", "frobenius", "--ring", "CLASSIFYING2", "x1", "--twist", "0"],
    ["obstruct", "weird", "b*w^3", "--which", "2", "--codim", "2", "--ring", "REALFOURFOLD"],
    ["obstruct", "hs", "", "--ring", "R", "--q", "5", "--expect", ""],
    ["wu-check", "--m", "1", "--n", "2", "--ring", "PROJ2_2", "--y", "1", "--hyperplane", "l"],
    ["charclass", "wet", "E", "--rings", "b.steen", "--expect", "[0] 1"],
    ["corpus", "list"],
    ["corpus", "run"],
    ["corpus", "run", "all"],
]


@pytest.mark.parametrize("argv", PLAIN, ids=" ".join)
def test_plain_argvs_are_read_directly(argv):
    assert _same_as_argparse(argv)


# Argvs argparse must read: each reads the same as the first, or is refused.
NOT_PLAIN = [
    ["adem", "P^1", "--prime", "-1"],
    ["adem", "P^1", "--prime", "0x10"],
    ["adem", "P^1", "--pr", "3"],
    ["adem", "P^1", "--prime=3"],
    ["adem", "--", "P^1"],
    ["adem", "P^1", "--prime", "3", "--prime", "5"],
    ["adem", "P^1", "--bogus", "3"],
    ["adem", "P^1", "extra"],
    ["adem", "-h"],
    ["adem"],
    ["apply", "Sq^1", "-x1 + x2", "--ring", "R"],
    ["apply", "Sq^1", "x1", "--ring", "R", "--expect", "-x1"],
    ["apply", "Sq^1", "x1"],
    ["obstruct", "even", "x1", "--ring", "R"],
    ["wu-check", "--n", "1", "--ring", "R"],
    ["--format", "xml", "corpus", "list"],
    ["--form", "json", "corpus", "list"],
    ["--format=json", "corpus", "list"],
    ["corpus", "list", "--format", "json"],
    ["verbless"],
    [],
]


@pytest.mark.parametrize("argv", NOT_PLAIN, ids=" ".join)
def test_other_argvs_go_to_argparse(argv):
    assert not _same_as_argparse(argv)


# ---------------------------------------------------- help and usage bytes

# sha256 of `steencalc VERB -h` (stdout) and of one usage error per verb
# (stderr), at 80 columns, as argparse wrote them before the verb table
HELP = {
    "run": "b0aad4fbf60c70264ca046b66bef3c73fd0faf4ea40bc028f0049e3f8567cca5",
    "apply": "da37daea4145716034dc3484582266d21d21600fcf017002e5bd372e5de87036",
    "normalize": "c2db76387f15147a7874df13d4a694d8b6ff9a2e040fa23a2269a94d672a1102",
    "adem": "62e8a082064f0d63d10194d9ff51671f10649ebadb535bb933d2a339572dd82a",
    "obstruct": "39c660f3a9c248536d48f46248ffa746f6ec8f8f061e9b0f723a79de8078f50b",
    "wu-check": "d1152f5f0126ff0c51da13c542d2c77892c5e9bec9f339c2e9c47a73ca47c34a",
    "charclass": "a79e1be9567b66cf73739caffc8c5f39e9e9ecc835dc8c7f7625d63d6095dc23",
    "corpus": "43fb5e57d8928112aee82d751fce1e9ba4f1f0999d793ca0c83730ed6c6a908b",
}
USAGE = {
    ("run",): "6fbd84d55b1ae27dec4d0b87687c73c5bd68c79695e0ede752eca0d9f1aead21",
    ("apply", "Sq^1"): "e54a6d2a20fb9fe2235f4e7e87fd33cd03f4d32579b6026e48103768750da621",
    ("normalize", "x1"): "83790a3c943640410c99308cd961c5cdd2342f49333055103fd37592735bb61e",
    ("adem", "Sq^1", "--prime", "three"):
        "1ead71aa63ee9858372a9c958fba2946e6d9c00869d4b0f69bb3822ea89d03f1",
    ("obstruct", "odd", "x1", "--max-degree"):
        "e2ad448d2e82ec2f4c095bab8bb977a54f482b6d1024fe56c01dc5958ac8ec03",
    ("wu-check", "--n", "1", "--ring", "R"):
        "6aa4811b9464b29a9fbf40d24b0f1802f06782ab45f42b2955cc859f751ef7a7",
    ("charclass", "w", "E"): "35675c2b0dac6f789e3b3c5241c8f3c0934a0f6675cded355086928c77635065",
    ("corpus",): "234faf1246a9f78618e438661ce3f5fcd85eaf232b0fc8d8ccc70c6181f73f8d",
}


def _exit(argv, monkeypatch):
    """(exit status, stdout, stderr) of main(argv) at 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as caught:
            main(argv)
    return caught.value.code, out.getvalue(), err.getvalue()


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("verb", sorted(HELP))
def test_verb_help_keeps_its_bytes(verb, monkeypatch):
    code, out, err = _exit([verb, "-h"], monkeypatch)
    assert (code, err, _sha(out)) == (0, "", HELP[verb])


@pytest.mark.parametrize("argv", sorted(USAGE), ids=" ".join)
def test_usage_error_keeps_its_bytes(argv, monkeypatch):
    code, out, err = _exit(list(argv), monkeypatch)
    assert (code, out, _sha(err)) == (2, "", USAGE[argv])
    assert err.startswith("usage: steencalc %s " % argv[0])


def test_every_verb_is_pinned():
    assert set(HELP) == {argv[0] for argv in USAGE} == set(_verbs())
    assert _FORMATS == ("text", "json", "json-like-structured")


# ------------------------------------------------------------- JSON bytes


def _payload(ok, results):
    records = [r.record for r in results]
    return json.dumps({"ok": ok, "results": records}, sort_keys=True, indent=2) + "\n"


def _emitted(results, ok, capsys):
    capsys.readouterr()
    _emit(results, "json", ok)
    return capsys.readouterr().out


QUERIES = [
    'apply "Sq^2 Sq^1" to x1*x2 in CLASSIFYING2 expect x1^2*x2^2;',
    'apply "Sq^1" to x1 in CLASSIFYING2 expect x2^2;',
    'normalize s^5 in MO3;',
    'adem "Sq^2 Sq^2" expect "Sq^3 Sq^1";',
    'obstruct odd --max-degree 5 on b*w^3 in REALFOURFOLD expect vanishes;',
    'obstruct weird --codim 2 --which 2 on b*w^3 in REALFOURFOLD;',
    'wu-check --n 2 --m 1 in PROJ2_2 expect true;',
]


def _answers():
    """The answers to QUERIES from the cache, each asked for once before."""
    queries = [q for text in QUERIES for q in dsl.parse(text).queries]
    for query in queries:
        runner.execute_query(query, corpus.resolve_ring)
    return [runner.execute_query(q, corpus.resolve_ring) for q in queries]


@pytest.mark.parametrize("ok", [True, False])
def test_emitted_json_is_json_dumps_of_the_records(ok, capsys):
    assert _emitted([], ok, capsys) == _payload(ok, [])
    one = _answers()[:1]
    assert _emitted(one, ok, capsys) == _payload(ok, one)
    built = [runner.execute_query(dsl.CorpusQuery("run", "P2REAL"), corpus.resolve_ring),
             runner.execute_query(dsl.CorpusQuery("list"), corpus.resolve_ring)]
    many = _answers()
    many = many[:3] + built + many[3:]
    out = _emitted(many, ok, capsys)
    assert out == _payload(ok, many)
    # a caller reads records and changes them: the payload shows them changed
    many[0].record["verb"] = "changed"
    many[0].record["result"].append({"coeff": 1, "monomial": {}})
    many[3].record["result"][0]["ok"] = None
    many[-1].record.clear()
    changed = _emitted(many, ok, capsys)
    assert changed == _payload(ok, many) != out
    # and no later answer sees the change
    again = _answers()
    assert _emitted(again, ok, capsys) == _payload(ok, again) == _payload(ok, _answers())
    assert again[0].record["verb"] == "apply"


def test_a_record_is_copied_on_its_first_read():
    (query,) = dsl.parse('apply "Sq^1" to x1 in CLASSIFYING2;').queries
    runner.execute_query(query, corpus.resolve_ring)
    first = runner.execute_query(query, corpus.resolve_ring)
    second = runner.execute_query(query, corpus.resolve_ring)
    assert "record" not in vars(first)
    assert first.record == second.record and first.record is not second.record
    assert first.record is first.record
    assert first.record_json() == json.dumps(first.record, sort_keys=True, indent=2)
    unread = [runner.execute_query(query, corpus.resolve_ring) for _ in range(2)]
    assert unread[0].record_json() is unread[1].record_json() == first.record_json()
    assert not any("record" in vars(r) for r in unread)


# ------------------------------------------------------ files not in UTF-8

BAD_BYTES = b'ring R { prime = 2; gen x deg=1; }\napply "Sq^1" to x in R \xff;\n'


def _not_utf8(path, offset=BAD_BYTES.index(b"\xff")):
    return "error: %s is not UTF-8: byte 0xff at offset %d\n" % (path, offset)


def test_run_file_not_utf8_is_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.steen"
    path.write_bytes(BAD_BYTES)
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr() == ("", _not_utf8(path))


def test_rings_file_not_utf8_is_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.steen"
    path.write_bytes(BAD_BYTES)
    assert main(["apply", "Sq^1", "x", "--ring", "R", "--rings", str(path)]) == 2
    assert capsys.readouterr() == ("", _not_utf8(path))


def test_corpus_file_not_utf8_is_exit_2(tmp_path, monkeypatch, capsys):
    (tmp_path / "BAD.steen").write_bytes(BAD_BYTES.replace(b" R", b" BAD"))
    monkeypatch.setenv(corpus.ENV_DATA_DIR, str(tmp_path))
    message = _not_utf8(tmp_path / "BAD.steen", BAD_BYTES.index(b"\xff") + 4)
    for argv in (["corpus", "run", "all"], ["apply", "Sq^1", "x", "--ring", "BAD"]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", message)
    with pytest.raises(SteencalcError, match="not UTF-8"):
        corpus.get_scenario("BAD")
