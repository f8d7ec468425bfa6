"""Surface syntax: lexing, parsing, rendering, and elaboration into rings."""

import json
import os
import re

import pytest
from hypothesis import given, settings, strategies as st

from steencalc import (
    DslSyntaxError,
    DuplicateGenerator,
    InvalidArgument,
    NonHomogeneous,
    UnknownGenerator,
)
from steencalc import (
    GeneratorSpec,
    OmegaUndeclared,
    RingPresentation,
    RuleNonTermination,
    SteenrodElement,
    corpus,
    dsl,
    parse_operation,
    rings,
)
from steencalc.cli import main
from steencalc.record import Record

from references import (
    data_file_path,
    reference_lex,
    reference_parse,
    reference_parse_operation,
    reference_parse_poly,
)


RING_P2 = (
    "ring P {\n"
    "  prime = 2;\n"
    "  gen w deg=1;\n"
    "  gen l deg=2 twist=1;\n"
    "  rule l^3 = 0;\n"
    "  action Sq^1(l) = w*l;\n"
    "  omega = w;\n"
    "}\n"
)


# ------------------------------------------------------------------ parsing


def test_full_file_round_trip():
    source = RING_P2 + (
        'apply "Sq^2" to l in P expect w*l + l^2;\n'
        "normalize l^3 + w*l in P;\n"
        'adem "Sq^2 Sq^2" prime = 2 expect "Sq^3 Sq^1";\n'
        "obstruct weird --codim 2 --which 1 on l^2 in P expect 0;\n"
        "obstruct odd --max-degree 5 on l in P twist = 1;\n"
        "obstruct frobenius --q 3 on l in P twist = 1 expect not-in-image;\n"
        "obstruct odd --which 3 on l in P;\n"
        "obstruct hs --max-degree 9 --q 2 on l in P;\n"
        "wu-check --n 2 --m 1 in P;\n"
        "wu-check --n 2 --m 1 in P y = w hyperplane = h expect true;\n"
        "corpus list;\n"
        "corpus run MO3;\n"
    )
    ast = dsl.parse(source)
    assert dsl.parse(dsl.render(ast)) == ast


def test_render_parse_stable_on_shipped_sources():
    for name in corpus.scenario_names():
        source = corpus.get_scenario(name).source
        ast = dsl.parse(source)
        assert dsl.parse(dsl.render(ast)) == ast, name


def test_error_position_is_reported():
    with pytest.raises(DslSyntaxError) as e:
        dsl.parse("ring R {\n  prime = 2;\n  gen w deg=;\n}")
    assert "3:" in str(e.value)


def test_unterminated_string_and_bad_char():
    with pytest.raises(DslSyntaxError):
        dsl.parse('adem "Sq^1 prime = 2;')
    with pytest.raises(DslSyntaxError):
        dsl.parse("ring R @ {}")


def test_missing_semicolon():
    with pytest.raises(DslSyntaxError):
        dsl.parse("ring R {\n  prime = 2\n  gen w deg=1;\n}")


def test_hyphenated_verdicts_parse():
    source = RING_P2 + "obstruct frobenius --q 3 on l in P twist = 1 expect in-image;\n"
    ast = dsl.parse(source)
    assert ast.queries[0].expect == "in-image"


def test_trailing_garbage_rejected_by_parse_poly():
    with pytest.raises(DslSyntaxError):
        dsl.parse_poly("w*l extra")
    with pytest.raises(DslSyntaxError):
        dsl.parse_poly("")


@pytest.mark.parametrize("text, col", [("2x", 2), ("2 x", 3), ("2 (x + y)", 3)])
def test_a_coefficient_joins_its_factor_only_through_a_star(text, col):
    """A bare integer is a whole term: what follows it without * is refused,
    alike by both readers and by the reference parser, standalone and
    before in."""
    found = "1:%d: found %r (expected 'in')" % (col + 10, text[col - 1])
    for parse_poly, parse in ((dsl.parse_poly, dsl.parse),
                              (reference_parse_poly, reference_parse)):
        with pytest.raises(DslSyntaxError) as caught:
            parse_poly(text)
        assert str(caught.value) == "1:%d: trailing input after the polynomial" % col
        with pytest.raises(DslSyntaxError) as caught:
            parse("normalize %s in R;" % text)
        assert str(caught.value) == found


def test_errors_at_the_end_of_input_name_it(capsys):
    assert main(["normalize", "2*", "--ring", "MO3"]) == 2
    assert capsys.readouterr().err == (
        "error: 1:3: found 'end of input' (expected a generator or '(')\n"
    )
    with pytest.raises(DslSyntaxError) as e:
        dsl.parse("ring R {\n  prime = 2;\n  gen w deg=1")
    assert str(e.value) == (
        "3:14: found 'end of input' (expected 'twist' or 'odd' or 'frob' or ';')"
    )


# ------------------------------------------ lexer against the reference


def _kind(text):
    """int | ident | string | sym | flag | eof, from a token's first characters."""
    first = text[:1]
    if first in dsl._IDENT_START:
        return "ident"
    if first.isdecimal():
        return "int"
    return {"": "eof", '"': "string"}.get(first, "flag" if text[:2] == "--" else "sym")


def _scan_tokens(source):
    """(kind, value, line, col) for each token of dsl._scan, ending in the
    eof token, with line:col from dsl._line_col."""
    texts, matches = dsl._scan(source)
    newlines = dsl._newlines(source)
    return [
        (_kind(text), text) + dsl._line_col(newlines, m.start(1))
        for text, m in zip(texts[:texts.index("") + 1], matches)
    ]


def _lex_outcome(lex, source):
    """(kind, value, line, col) tokens, or the error's message and span."""
    try:
        return [tuple(tok) for tok in lex(source)]
    except DslSyntaxError as exc:
        return ("error", str(exc), exc.line, exc.col)


# pieces of the DSL alphabet and the places where line and column tracking
# can slip: line breaks, comments, quotes, flags, the hyphenated keyword
LEX_PIECES = [
    "\n", "\r\n", " ", "\t", "\x0b", "\u2028", "# comment", "#", "#x\n", '"Sq^2"',
    '""', '"a\nb"', "--n", "--max-degree", "--", "--N", "-", "wu-check", "wu-checks",
    "wu", "check", "x1", "Sq", "_a", "12", "0", "^", "{", "}", "(", ")", ";", "=", "*",
    "+", ",",
]
# characters no token starts with
STRAY = ["@", "!", "'", "\\", ".", "$", "\u00e9", "\u00a0", '"']


@st.composite
def dsl_like_text(draw):
    """Pieces of the alphabet, with at most one stray character somewhere, so
    both whole token streams and error positions after a prefix are drawn."""
    pieces = draw(st.lists(st.sampled_from(LEX_PIECES), max_size=30))
    if draw(st.booleans()):
        stray = draw(st.one_of(st.sampled_from(STRAY), st.characters()))
        pieces.insert(draw(st.integers(0, len(pieces))), stray)
    return "".join(pieces)


@settings(max_examples=1000, deadline=None)
@given(dsl_like_text())
def test_lexer_matches_reference(source):
    assert _lex_outcome(_scan_tokens, source) == _lex_outcome(reference_lex, source)


@pytest.mark.parametrize("name", corpus.scenario_names())
def test_lexer_matches_reference_on_shipped_files(name):
    with open(data_file_path(name), encoding="utf-8") as fh:
        source = fh.read()
    tokens = _lex_outcome(_scan_tokens, source)
    assert tokens[0] != "error"
    assert tokens == _lex_outcome(reference_lex, source)


# --------------------------------- parser against the token-object reference


def _spans(tree):
    """(node type, field, span) for every span field of every node, in field
    order: spans take no part in equality, so the trees alone would not
    compare them."""
    out = []
    if isinstance(tree, Record):
        for name in tree._fields:
            value = getattr(tree, name)
            if name.endswith("span"):
                out.append((type(tree).__name__, name, value))
            else:
                out.extend(_spans(value))
    elif isinstance(tree, tuple):
        for item in tree:
            out.extend(_spans(item))
    return out


def _parse_outcome(parse, source):
    """The tree and its spans, or the error's message, position and
    expected set."""
    try:
        tree = parse(source)
    except DslSyntaxError as exc:
        return ("error", str(exc), exc.line, exc.col, exc.expected)
    return tree, _spans(tree)


SESSION_RINGS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench", "rings", "session.steen",
)
SESSION_REFERENCE = os.path.join(os.path.dirname(os.path.dirname(SESSION_RINGS)),
                                 "session_reference.json")


def _sources():
    """The shipped files, the session rings, and one source of the session's
    library queries and the corpus verbs, a statement to a line: the shipped
    files hold no adem, charclass or corpus statement."""
    paths = [data_file_path(name) for name in corpus.scenario_names()]
    out = []
    for path in paths + [SESSION_RINGS]:
        with open(path, encoding="utf-8") as fh:
            out.append(fh.read())
    with open(SESSION_REFERENCE, encoding="utf-8") as fh:
        texts = [e["text"] for e in json.load(fh)["entries"] if e["mode"] == "lib"]
    out.append("\n".join(texts + ["corpus list;", "corpus run all;", "corpus run MO3;", ""]))
    return out


SOURCES = _sources()


def test_session_rings_are_consistent():
    with open(SESSION_RINGS, encoding="utf-8") as fh:
        program = dsl.build_program(dsl.parse(fh.read()))
    assert len(program.rings) == 6
    for name, ring in program.rings.items():
        assert ring.check_action_consistency() == (), name


@pytest.mark.parametrize("index", range(len(SOURCES)))
def test_parser_matches_reference_on_shipped_files(index):
    source = SOURCES[index]
    got = _parse_outcome(dsl.parse, source)
    assert got[0] != "error"
    assert got == _parse_outcome(reference_parse, source)


def _token_extents(source):
    """(start, end) offsets of each token but eof, from the reference lexer."""
    line_starts = [0] + [i + 1 for i, ch in enumerate(source) if ch == "\n"]
    return [
        (line_starts[line - 1] + col - 1, line_starts[line - 1] + col - 1 + len(value))
        for kind, value, line, col in reference_lex(source)[:-1]
    ]


@st.composite
def mutated_source(draw):
    """A shipped source with one token deleted, duplicated, or swapped with
    the next one, the layout around it kept."""
    source = draw(st.sampled_from(SOURCES))
    extents = _token_extents(source)
    i = draw(st.integers(0, len(extents) - 2))
    (s, e), (s2, e2) = extents[i], extents[i + 1]
    edit = draw(st.sampled_from(["delete", "duplicate", "swap"]))
    if edit == "delete":
        return source[:s] + source[e:]
    if edit == "duplicate":
        return source[:e] + draw(st.sampled_from(["", " "])) + source[s:]
    return source[:s] + source[s2:e2] + source[e:s2] + source[s:e] + source[e2:]


@settings(max_examples=400, deadline=None)
@given(mutated_source())
def test_parser_matches_reference_on_mutated_files(source):
    assert _parse_outcome(dsl.parse, source) == _parse_outcome(reference_parse, source)


# ------------------------------------------------------------ the line reader


def _handovers(monkeypatch):
    """The offsets the line reader hands sources over to _Parser at, from
    here on."""
    offsets = []
    parse_file = dsl._Parser.parse_file

    def spy(self, offset=0):
        offsets.append(offset)
        return parse_file(self, offset)

    monkeypatch.setattr(dsl._Parser, "parse_file", spy)
    return offsets


def test_line_reader_reads_the_shipped_files_and_session_queries(monkeypatch):
    offsets = _handovers(monkeypatch)
    for name in corpus.scenario_names():
        with open(data_file_path(name), encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        dsl.parse("\n".join(lines))
        if name == "MO3":  # its one parenthesised polynomial, on line 18
            assert "(" in lines[17]
            assert offsets == [sum(len(line) + 1 for line in lines[:17])]
        else:
            assert offsets == [], name
        offsets.clear()
    with open(SESSION_REFERENCE, encoding="utf-8") as fh:
        texts = [e["text"] for e in json.load(fh)["entries"] if e["mode"] == "lib"]
    assert texts
    for text in texts:
        dsl.parse(text)
    assert offsets == []


GAPS = [" ", "  ", "\t", " \t"]
# generator names, some of them query keywords, and their exponents
POLY_NAMES = ["x", "y2", "w", "in", "expect", "hyperplane", "to"]
POLY_EXPONENTS = ["", "^2", "^0", "^12", "^٢", " ^ 3", "^\t1"]


@st.composite
def flat_poly(draw):
    """A polynomial without parentheses: 2*x, constants, x^0, other scripts'
    digits and a leading -, and the juxtaposed 2x and 2 x, which both readers
    refuse alike."""
    out = draw(st.sampled_from(["", "", "-", "- "]))
    for i in range(draw(st.integers(1, 3))):
        if i:
            out += draw(st.sampled_from([" + ", "+", " - ", "-", "\t-\t"]))
        coeff = draw(st.sampled_from(["", "", "2", "0", "12", "٣"]))
        names = draw(st.lists(st.sampled_from(POLY_NAMES), min_size=0 if coeff else 1,
                              max_size=2))
        if coeff and names:
            coeff += draw(st.sampled_from(["", " ", "*", " * "]))
        out += coeff + draw(st.sampled_from(["*", " * ", "\t*"])).join(
            name + draw(st.sampled_from(POLY_EXPONENTS)) for name in names)
    return out


def _tight(left, right):
    """Whether two tokens, as (kind, value), lex alike with nothing between
    them and are commonly written so: next to a symbol or a string, and a
    hyphen between words."""
    if "string" in (left[0], right[0]):
        return True
    if "-" in (left[1], right[1]):
        return (right if left[1] == "-" else left)[0] in ("ident", "int")
    return "sym" in (left[0], right[0])


# statements with polynomials P: ~ is a gap, ` a gap or none
POLY_QUERIES = [
    'apply~"Sq^1"~to~P~in~R', "normalize~P~in~R",
    "obstruct~weird~--which~1~on~P~in~R~twist`=`2",
]
POLY_EXPECTS = ["", "~expect~P"]
WU_QUERY = "wu-check~--n~1~--m~1~in~R~y`=`P"
WU_ENDINGS = ["", "~hyperplane`=`l", "~expect~true", "~hyperplane`=`l~expect~false"]
POLY_ITEMS = ["rule~x`^`2`=`P", "action~Sq`^`1`(`x`)`=`P"]


@st.composite
def line_source(draw):
    """A shipped file, one statement or ring block line to a line, with its
    layout redrawn: tabs, spaces around = ^ * and none where tokens allow,
    \\r\\n endings, comment lines; with polynomial queries appended and
    polynomial rules and actions added to its ring."""
    with open(data_file_path(draw(st.sampled_from(corpus.scenario_names()))),
              encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for i, line in enumerate(lines):
        tokens = [tok[:2] for tok in reference_lex(line)[:-1]]
        lines[i] = tokens[0][1] + "".join(
            draw(st.sampled_from([""] + GAPS if _tight(left, right) else GAPS)) + right[1]
            for left, right in zip(tokens, tokens[1:]))
    items = [draw(st.sampled_from(POLY_ITEMS)) for _ in range(draw(st.integers(0, 2)))]
    queries = [
        draw(st.sampled_from(POLY_QUERIES)) + draw(st.sampled_from(POLY_EXPECTS))
        if draw(st.booleans()) else WU_QUERY + draw(st.sampled_from(WU_ENDINGS))
        for _ in range(draw(st.integers(0, 3)))
    ]
    close = lines.index("}")
    out = ""
    for line in lines[:close] + items + lines[close:] + queries:
        if "~" in line:
            line = re.sub("[~`P]", lambda m: draw(
                flat_poly() if m[0] == "P" else
                st.sampled_from(GAPS if m[0] == "~" else [""] + GAPS)), line + "`;")
        out += (draw(st.sampled_from(["", "  ", "\t"])) + line
                + draw(st.sampled_from(["", " ", "\t"])) + draw(st.sampled_from(["\n", "\r\n"])))
        if draw(st.integers(0, 9)) == 0:
            out += draw(st.sampled_from(["\n", "  # a comment\n", "#\n"]))
    return out


@settings(max_examples=400, deadline=None)
@given(line_source())
def test_line_reader_matches_reference(source):
    assert _parse_outcome(dsl.parse, source) == _parse_outcome(reference_parse, source)


@settings(max_examples=400, deadline=None)
@given(flat_poly())
def test_flat_polys_match_reference(text):
    assert (_parse_outcome(dsl.parse_poly, text)
            == _parse_outcome(reference_parse_poly, text))


# ------------------------------------------- every layout, read both ways

TREE_NAMES = ["x", "y2", "w", "_a", "in", "expect", "odd", "hyperplane", "Sq", "b"]
names = st.sampled_from(TREE_NAMES)
ints = st.integers(0, 10**6)
# text of a quoted string: no quote and no line break
quoted = st.text(st.sampled_from('Sq^12 Pb*+-#;[]\té'), max_size=12)


@st.composite
def tree_poly(draw):
    """A Poly that renders to its own source: terms with nonzero exponents,
    any of them a bare integer, the last one too where a word follows it."""
    terms = draw(st.lists(st.tuples(st.integers(-3, 12), st.lists(
        st.tuples(names, st.integers(1, 12)), max_size=2).map(tuple)), min_size=1, max_size=3))
    return dsl.Poly(tuple(terms))


def _options(draw, **options):
    """The options drawn as set, each either given or left at its default."""
    return {k: draw(v) for k, v in options.items() if draw(st.booleans())}


@st.composite
def tree_query(draw):
    verb = draw(st.sampled_from(
        ["apply", "normalize", "adem", "obstruct", "wu-check", "charclass", "corpus"]))
    if verb == "apply":
        return dsl.ApplyQuery(draw(quoted), draw(tree_poly()), draw(names),
                              **_options(draw, expect=tree_poly()))
    if verb == "normalize":
        return dsl.NormalizeQuery(draw(tree_poly()), draw(names),
                                  **_options(draw, expect=tree_poly()))
    if verb == "adem":
        return dsl.AdemQuery(draw(quoted), **_options(draw, prime=ints, expect=quoted))
    if verb == "obstruct":
        kind = draw(st.sampled_from(["odd", "weird", "frobenius", "hs"]))
        reads = {"odd": dict(max_degree=ints), "weird": dict(codim=ints, which=ints),
                 "frobenius": dict(q=ints), "hs": dict(q=ints)}[kind]
        verdict = st.sampled_from(["vanishes", "nonvanishing", "in-image", "not-in-image", "x"])
        return dsl.ObstructQuery(kind, draw(tree_poly()), draw(names), **_options(
            draw, twist=ints, expect=tree_poly() if kind == "weird" else verdict, **reads))
    if verb == "wu-check":
        return dsl.WuQuery(draw(ints), draw(ints), draw(names), **_options(
            draw, y=tree_poly(), hyperplane=names, expect=st.sampled_from(["true", "false"])))
    if verb == "charclass":
        return dsl.CharclassQuery(draw(st.sampled_from(["w", "wet"])), draw(names),
                                  **_options(draw, expect=quoted))
    action = draw(st.sampled_from(["list", "run"]))
    return dsl.CorpusQuery(action, draw(names) if action == "run" else None)


@st.composite
def tree_ring(draw):
    gens = draw(st.lists(st.builds(
        dsl.GenDecl, names, ints, st.integers(0, 5), st.booleans(), st.none() | ints),
        max_size=3))
    rules = draw(st.lists(st.builds(dsl.RuleDecl, names, ints, tree_poly()), max_size=2))
    actions = draw(st.lists(st.builds(
        lambda kind, index, gen, rhs: dsl.ActionDecl(kind, None if kind == "b" else index,
                                                     gen, rhs),
        st.sampled_from(["Sq", "P", "b"]), ints, names, tree_poly()), max_size=3))
    return dsl.RingBlock(draw(names), draw(ints), tuple(gens), tuple(rules), tuple(actions),
                         draw(st.none() | names))


@settings(max_examples=300, deadline=None)
@given(st.lists(tree_ring(), max_size=2), st.lists(tree_query(), min_size=1, max_size=6))
def test_rendered_trees_read_alike_by_line_and_by_token(rings, queries):
    """render() writes every layout so that the line reader reads it with no
    handover, and _Parser alone reads it to the same tree and spans."""
    tree = dsl.FileAst(tuple(rings), (), tuple(queries))
    source = dsl.render(tree)
    read_rings, read_queries, resume = dsl._read_lines(source)
    assert resume is None
    by_line = dsl.FileAst(tuple(read_rings), (), tuple(read_queries))
    by_token = dsl._Parser(source).parse_file()
    assert by_line == tree == by_token
    assert _spans(by_line) == _spans(by_token)


@pytest.mark.parametrize("line, col, message", [
    ("obstruct bogus on x1 in CLASSIFYING2;", 10,
     "found 'bogus' (expected 'odd' or 'weird' or 'frobenius' or 'hs')"),
    ("obstruct 5 on x1 in CLASSIFYING2;", 10,
     "found '5' (expected odd, weird, frobenius, or hs)"),
    ("charclass wt of E;", 11, "found 'wt' (expected 'w' or 'wet')"),
    ("corpus walk all;", 8, "found 'walk' (expected 'list' or 'run')"),
    # the lexer reads wu-check as one word, so this verdict is two words
    ("obstruct odd on x1 in R expect wu-checks;", 40, "found 's' (expected ';')"),
    ("bundle E in R { rank = 1; chern 0 = t; }", 33,
     "Chern indices must be distinct and start at 1"),
    ("bundle E in R { rank = 1; chern 1 = t; chern 1 = t; }", 46,
     "Chern indices must be distinct and start at 1"),
    ("bundle E in R { rank = 1; denom 1 = t; denom 3 = t; }", 1,
     "denom classes of E must be consecutive from 1"),
    ("bundle E in R { rank = 1; bogus = 2; }", 27,
     "found 'bogus' (expected 'trunc' or 'chern' or 'denom' or '}')"),
])
def test_bad_query_word_is_reported_where_it_stands(line, col, message, tmp_path, capsys):
    source = "# a comment\n  " + line + "\n"
    want = "2:%d: %s" % (col + 2, message)
    for parse in (dsl.parse, reference_parse):
        with pytest.raises(DslSyntaxError) as caught:
            parse(source)
        assert str(caught.value) == want
    path = tmp_path / "word.steen"
    path.write_text(source, encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == "error: %s\n" % want


POLY_PIECES = [
    "w", "x1", "Sq", "_a", "0", "1", "12", "\u0663", "^", "*", "+", "-", "(", ")",
    " ", "\n", ";", "in", '"w"', "--q", "#c\n", "@",
]


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(POLY_PIECES), max_size=16).map("".join))
def test_parse_poly_matches_reference(text):
    assert (_parse_outcome(dsl.parse_poly, text)
            == _parse_outcome(reference_parse_poly, text))


# ------------------------------------------------------------- polynomials


def _p2():
    return dsl.build_program(dsl.parse(RING_P2)).rings["P"]


def test_poly_constants_and_exponents():
    R = _p2()
    poly = dsl.parse_poly("1")
    assert dsl.poly_to_element(R, poly) == R.one()
    assert dsl.poly_to_element(R, dsl.parse_poly("0")) == R.zero()
    assert dsl.poly_to_element(R, dsl.parse_poly("w^0")) == R.one()
    assert dsl.poly_to_element(R, dsl.parse_poly("3*w")) == R.gen("w")


def test_poly_parens_expand():
    R = _p2()
    got = dsl.poly_to_element(R, dsl.parse_poly("(w + l)*(w + l)"))
    w, l = R.gen("w"), R.gen("l")
    assert got == w * w + l * l  # cross terms cancel mod 2


def test_poly_minus_at_odd_prime():
    source = (
        "ring A {\n"
        "  prime = 3;\n"
        "  gen y deg=2 twist=1;\n"
        "  action b(y) = 0;\n"
        "}\n"
    )
    R = dsl.build_program(dsl.parse(source)).rings["A"]
    y = R.gen("y")
    assert dsl.poly_to_element(R, dsl.parse_poly("-y")) == y.scale(2)
    assert dsl.poly_to_element(R, dsl.parse_poly("y - y")) == R.zero()


def test_poly_koszul_order_matters():
    source = (
        "ring A {\n"
        "  prime = 3;\n"
        "  gen x1 deg=1 twist=1 odd;\n"
        "  gen x2 deg=1 twist=1 odd;\n"
        "  action b(x1) = 0;\n"
        "  action b(x2) = 0;\n"
        "}\n"
    )
    R = dsl.build_program(dsl.parse(source)).rings["A"]
    fwd = dsl.poly_to_element(R, dsl.parse_poly("x1*x2"))
    rev = dsl.poly_to_element(R, dsl.parse_poly("x2*x1"))
    assert rev == fwd.scale(2)
    assert dsl.poly_to_element(R, dsl.parse_poly("x1*x2 + x2*x1")) == R.zero()


def test_poly_unknown_generator():
    R = _p2()
    with pytest.raises(UnknownGenerator):
        dsl.poly_to_element(R, dsl.parse_poly("w*z"))


# ------------------------------------------------------------- elaboration


def _build(source):
    return dsl.build_program(dsl.parse(source))


def test_duplicate_generator():
    with pytest.raises(DuplicateGenerator):
        _build("ring R {\n  prime = 2;\n  gen w deg=1;\n  gen w deg=2;\n}")


def test_rule_with_unknown_generator():
    with pytest.raises(UnknownGenerator):
        _build("ring R {\n  prime = 2;\n  gen w deg=1;\n  rule z^2 = 0;\n}")


def test_wrong_operator_family_for_prime():
    with pytest.raises(NonHomogeneous):
        _build("ring R {\n  prime = 3;\n  gen y deg=2 twist=1;\n  action Sq^1(y) = 0;\n}")
    with pytest.raises(NonHomogeneous):
        _build("ring R {\n  prime = 2;\n  gen w deg=1;\n  action P^1(w) = 0;\n}")


def test_duplicate_action_clause():
    source = (
        "ring R {\n  prime = 2;\n  gen l deg=2 twist=1;\n"
        "  action Sq^1(l) = 0;\n  action Sq^1(l) = 0;\n}"
    )
    with pytest.raises(DuplicateGenerator):
        _build(source)


def test_non_homogeneous_rule_and_action():
    with pytest.raises(NonHomogeneous):
        _build("ring R {\n  prime = 2;\n  gen w deg=1;\n  rule w^2 = w;\n}")
    with pytest.raises(NonHomogeneous):
        _build(
            "ring R {\n  prime = 2;\n  gen w deg=1;\n  gen l deg=2 twist=1;\n"
            "  action Sq^1(l) = l;\n}"
        )


R2 = "ring R {\n  prime = 2;\n  gen w deg=1;\n"
R3 = "ring R {\n  prime = 3;\n  gen y deg=2 twist=1;\n"
BUNDLE = "bundle E in R {\n  rank = 1;\n}\n"


@pytest.mark.parametrize("source, error, message, span", [
    (R2 + "  gen w deg=1;\n}", DuplicateGenerator,
     "generator 'w' declared twice in ring R", (4, 3)),
    (R2 + "  action Sq^1(w) = w^2;\n  action Sq^1(w) = w^2;\n}", DuplicateGenerator,
     "action Sq^1(w) declared twice", (5, 3)),
    (R2 + "}\n  " + R2 + "}", DuplicateGenerator, "ring 'R' declared twice", (5, 3)),
    (R2 + "}\n" + BUNDLE + BUNDLE, DuplicateGenerator, "bundle 'E' declared twice", (8, 1)),
    (R2 + "  rule v^2 = 0;\n}", UnknownGenerator, "rule on unknown generator 'v'", (4, 3)),
    (R2 + "  action Sq^1(v) = 0;\n}", UnknownGenerator,
     "action on unknown generator 'v'", (4, 3)),
    (R2 + "}\n" + BUNDLE.replace("in R", "in S"), UnknownGenerator,
     "bundle E names unknown ring 'S'", (5, 1)),
    (R3 + "  action Sq^1(y) = 0;\n}", NonHomogeneous, "Sq actions need prime 2 (ring R)", (4, 3)),
    (R2 + "\n  action P^1(w) = 0;\n}", NonHomogeneous,
     "P actions need an odd prime (ring R)", (5, 3)),
    ("\n" + R2 + "  gen v deg=0;\n}", NonHomogeneous,
     "generator v must have positive degree", (5, 3)),
    (R2 + "  rule w^2 = 1;\n}", NonHomogeneous, "rule on w is not degree-homogeneous", (4, 3)),
    (R2 + "  rule w^2 = 0;\n  rule w^3 = 0;\n}", NonHomogeneous,
     "two rules on generator 'w'", (5, 3)),
    (R2 + "  gen l deg=2 twist=1;\n  action Sq^1(l) = l;\n}", NonHomogeneous,
     "action on l: component has degree 2, expected 3", (5, 3)),
    # at prime 2 the Bockstein is Sq^1, so declaring both is declaring one twice
    (R2 + "  action Sq^1(w) = w^2;\n  action b(w) = 0;\n}", DuplicateGenerator,
     "action b(w) declared twice", (5, 3)),
    (R2 + "  action b(w) = 0;\n  action Sq^1(w) = w^2;\n}", DuplicateGenerator,
     "action Sq^1(w) declared twice", (5, 3)),
])
def test_semantic_errors_carry_their_span(source, error, message, span, tmp_path, capsys):
    with pytest.raises(error) as caught:
        _build(source)
    assert str(caught.value) == "%s at %d:%d" % ((message,) + span)
    assert caught.value.span == span
    path = tmp_path / "bad.steen"
    path.write_text(source + "\n", encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == "error: %s at %d:%d\n" % ((message,) + span)


def test_semantic_errors_outside_a_file_have_no_position():
    block = dsl.RingBlock("R", 2, (dsl.GenDecl("w", 1), dsl.GenDecl("w", 1)))
    with pytest.raises(DuplicateGenerator, match="^generator 'w' declared twice in ring R$") as e:
        dsl.build_ring(block)
    assert e.value.span is None
    block = dsl.RingBlock("R", 2, (dsl.GenDecl("w", 1),), (dsl.RuleDecl("v", 2, dsl.Poly(())),))
    assert "  rule v^2 = 0;\n" in dsl.render_ring(block)  # an empty Poly renders as 0
    with pytest.raises(UnknownGenerator, match="^rule on unknown generator 'v'$"):
        dsl.build_ring(block)


def test_parity_mismatch_is_wrapped():
    # constructor-level ValueError surfaces as the dsl elaboration error
    with pytest.raises(NonHomogeneous):
        _build("ring R {\n  prime = 3;\n  gen y deg=2 twist=1 odd;\n  action b(y) = 0;\n}")


def test_unknown_ring_name_defers_to_runtime():
    # queries may target corpus rings that the file never declares, so
    # elaboration keeps the name symbolic instead of rejecting it
    source = RING_P2 + 'apply "Sq^2" to s in MO3 expect w2*s;\n'
    prog = _build(source)
    assert prog.queries[0].ring == "MO3"


def test_operator_names_stay_textual_until_execution():
    # the operation inside quotes is checked by the engine, not the grammar
    ast = dsl.parse(RING_P2 + 'apply "Sq^2 Sq^1" to w in P;\n')
    assert ast.queries[0].op_text == "Sq^2 Sq^1"
    from steencalc.steenrod import parse_operation

    with pytest.raises(DslSyntaxError):
        parse_operation("Bogus^1", 2)


def test_bundle_block_round_trip():
    source = RING_P2 + (
        "bundle E in P {\n"
        "  rank = 2;\n"
        "  trunc = 8;\n"
        "  chern 1 = l;\n"
        "  chern 2 = l^2;\n"
        "  denom 1 = w^2;\n"
        "}\n"
        "charclass wet of E;\n"
        'charclass w of E expect "[0] 1; [2] l";\n'
    )
    ast = dsl.parse(source)
    assert dsl.parse(dsl.render(ast)) == ast
    assert "  denom 1 = w^2;" in dsl.render(ast)
    assert ast.queries[1].expect == "[0] 1; [2] l"
    prog = _build(source)
    assert "E" in prog.bundles


# ----------------------------------------- rule and action polynomials


def _multiply_route(pres, poly, span=None):
    """A Poly evaluated factor by factor, one ring multiply per unit of
    exponent, left to right so Koszul signs land where the source put them:
    the reference poly_to_element and dsl._poly_to_raw must agree with.
    Every factor's name is checked, as both of those do."""
    acc = pres.zero()
    for coeff, factors in poly.terms:
        elt = pres.one().scale(coeff)
        for name, exp in factors:
            if name not in pres.index:
                raise UnknownGenerator(
                    "unknown generator %r%s" % (name, " at %d:%d" % span if span else "")
                )
            for _ in range(exp):
                elt = elt * pres.gen(name)
        acc = acc + elt
    return acc


def _rule_free_poly_to_raw(prime, decls, poly, span):
    """A polynomial evaluated by the multiply route in a rule-free
    presentation on the same generators."""
    skeleton = RingPresentation(prime, [
        GeneratorSpec(name, 1 if odd else 2, parity="odd" if odd else "even")
        for name, odd in decls
    ])
    return _multiply_route(skeleton, poly, span).terms


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_rule_polys_convert_as_in_a_rule_free_presentation(data):
    prime = data.draw(st.sampled_from([2, 3, 5]))
    odds = st.booleans() if prime > 2 else st.just(False)
    decls = [("g%d" % i, data.draw(odds)) for i in range(data.draw(st.integers(1, 4)))]
    unknown = ["zz"] if data.draw(st.integers(0, 3)) == 0 else []
    names = st.sampled_from([name for name, _ in decls] + unknown)
    factor = st.tuples(names, st.sampled_from([1, 1, 1, 2, 0, 3]))
    term = st.tuples(st.integers(-6, 6), st.lists(factor, max_size=4).map(tuple))
    poly = dsl.Poly(tuple(data.draw(st.lists(term, max_size=5))))
    gens = {name: (i, odd) for i, (name, odd) in enumerate(decls)}
    results = []
    for convert in (lambda: _rule_free_poly_to_raw(prime, decls, poly, (3, 7)),
                    lambda: dsl._poly_to_raw(prime, gens, poly, (3, 7))):
        try:
            results.append(list(convert().items()))
        except UnknownGenerator as exc:
            results.append(str(exc))
    assert results[0] == results[1]


def _outcome(convert):
    try:
        return convert()
    except UnknownGenerator as exc:
        return str(exc)


@pytest.mark.parametrize("name", corpus.scenario_names())
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_poly_to_element_matches_the_multiply_route(name, data):
    """One reduction per raw term gives what a multiply per factor gives, on
    every shipped ring, rules included."""
    R = corpus.get_scenario(name).presentation
    names = st.sampled_from([g.name for g in R.generators] + ["zz"])
    factor = st.tuples(names, st.sampled_from([0, 1, 1, 1, 2, 3]))
    term = st.tuples(st.integers(-6, 6), st.lists(factor, max_size=4).map(tuple))
    poly = dsl.Poly(tuple(data.draw(st.lists(term, max_size=5))))
    assert (_outcome(lambda: dsl.poly_to_element(R, poly, (2, 5)))
            == _outcome(lambda: _multiply_route(R, poly, (2, 5))))


def test_unknown_names_are_checked_after_a_zero_factor(tmp_path, capsys):
    """A factor that makes its term zero (l^3 = 0 by a rule, an odd square)
    does not hide an undeclared name after it."""
    R = corpus.get_scenario("PROJ2_2").presentation
    with pytest.raises(UnknownGenerator, match="^unknown generator 'zz'$"):
        dsl.poly_to_element(R, dsl.parse_poly("l^3*zz"))
    ring = "ring A {\n  prime = 3;\n  gen x deg=1 odd;\n  gen y deg=2;\n}\n"
    path = tmp_path / "queries.steen"
    for query, where in (("normalize l^3*zz in PROJ2_2;", "6:1"),
                         ("  normalize x*x*zz in A;", "6:3")):
        path.write_text(ring + query + "\n", encoding="utf-8")
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == "error: unknown generator 'zz' at %s\n" % where
    with pytest.raises(UnknownGenerator, match="^unknown generator 'zz' at 5:3$"):
        _build(ring[:-2] + "  rule y^2 = x*x*zz;\n}\n")


def test_exponent_errors_carry_their_span(tmp_path, capsys):
    """An exponent at the packed field limit, in a query, an expectation or a
    rule's right side, is reported at that source's line:col."""
    big = "error: exponent 1073741824 outside 0..1073741823 at %s\n"
    ring = "ring R {\n  prime = 2;\n  gen y deg=1;\n  gen z deg=536870912;\n"
    path = tmp_path / "big.steen"
    for source, where in (
        ("normalize x1^1073741824 in CLASSIFYING2;", "1:1"),
        ("normalize x1 in CLASSIFYING2 expect x1^1073741824;", "1:1"),
        ("\n  normalize x1^536870912*x1^536870912 in CLASSIFYING2;", "2:3"),
        (ring + "  rule z^2 = y^1073741824;\n}", "5:3"),
    ):
        path.write_text(source + "\n", encoding="utf-8")
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == big % where
    # a term that cancels is never packed, so its exponent is not read
    R = corpus.get_scenario("CLASSIFYING2").presentation
    assert not dsl.poly_to_element(R, dsl.parse_poly("x1^1073741824 + x1^1073741824"))


def test_exponent_overflow_through_a_rule_carries_its_span(tmp_path, capsys):
    """z^2*y is in range, but the rule rewrites it to y^1073741824*w."""
    path = tmp_path / "rule.steen"
    path.write_text(
        "ring R {\n  prime = 2;\n  gen y deg=1;\n  gen w deg=1;\n  gen z deg=536870912;\n"
        "  rule z^2 = y^1073741823*w;\n}\n\n  normalize z^2*y in R;\n",
        encoding="utf-8",
    )
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: monomial y^1073741824*w has an exponent of 1073741824 or more at 9:3\n"
    )
    assert captured.out == ""


_OVERFLOW = "ring R {\n  prime = 2;\n  gen y deg=1;\n  gen w deg=1;\n  gen z deg=536870912;\n"


@pytest.mark.parametrize("build, error, span", [
    # an exponent past the limit, in the source and reached through a rule
    (lambda: dsl.poly_to_element(corpus.get_scenario("CLASSIFYING2").presentation,
                                 dsl.parse_poly("x1^1073741824"), (2, 5)),
     InvalidArgument, (2, 5)),
    (lambda: dsl.poly_to_element(_build(_OVERFLOW + "  rule z^2 = y^1073741823*w;\n}").rings["R"],
                                 dsl.parse_poly("z^2*y"), (9, 3)),
     InvalidArgument, (9, 3)),
    (lambda: _build(R2 + "  rule w^2 = w^2;\n}"), RuleNonTermination, (4, 3)),
    (lambda: _build("\n" + R2 + "  omega = v;\n}"), OmegaUndeclared, (2, 1)),
    (lambda: _build("\n" + R2 + "}\n" + BUNDLE.replace("= 1;", "= 1; trunc = 536870912;")),
     InvalidArgument, (6, 1)),
])
def test_errors_keep_their_span_apart_from_their_message(build, error, span):
    """Each error built again at a source position has the position as its
    span, its text ends in it, and its message is the text without it."""
    with pytest.raises(error) as caught:
        build()
    exc = caught.value
    assert exc.span == span
    assert str(exc) == "%s at %d:%d" % ((exc.message,) + span)
    assert not exc.message.endswith(" at %d:%d" % span)


def test_build_ring_makes_one_presentation(monkeypatch):
    made = []
    init = rings.RingPresentation.__init__
    monkeypatch.setattr(rings.RingPresentation, "__init__",
                        lambda self, *args, **kw: made.append(1) or init(self, *args, **kw))
    _build(RING_P2)
    assert len(made) == 1


def test_generator_checks_come_before_rule_polys():
    # the generators are checked before any rule or action is read
    with pytest.raises(NonHomogeneous, match="parity must match degree"):
        _build("ring R {\n  prime = 3;\n  gen y deg=2 odd;\n  rule y^2 = zz;\n}")
    with pytest.raises(NonHomogeneous, match="not a prime: 4"):
        _build("ring R {\n  prime = 4;\n  gen y deg=2;\n  rule y^2 = zz;\n}")
    with pytest.raises(OmegaUndeclared, match="omega names undeclared generator 'v'"):
        _build("ring R {\n  prime = 2;\n  gen y deg=2;\n  rule y^2 = zz;\n  omega = v;\n}")
    with pytest.raises(UnknownGenerator, match="^unknown generator 'zz' at 4:3$"):
        _build("ring R {\n  prime = 2;\n  gen y deg=2;\n  rule y^2 = zz;\n}")


@pytest.mark.parametrize("ring, error, message", [
    ("  omega = v;\n", OmegaUndeclared, "omega names undeclared generator 'v'"),
    ("  gen v deg=2;\n  omega = v;\n", OmegaUndeclared, "omega must have degree 1"),
    ("  rule w^2 = w^2;\n", RuleNonTermination, "rule w^2 has a right side not lead-reduced"),
])
def test_ring_build_errors_carry_the_block_span(ring, error, message, tmp_path, capsys):
    # omega has no span of its own, so its errors point at the ring block;
    # a rule error points at its rule, on line 5
    source = "\n" + R2 + ring + "}\n"
    at = "5:3" if error is RuleNonTermination else "2:1"
    with pytest.raises(error) as caught:
        _build(source)
    assert str(caught.value) == "%s at %s" % (message, at)
    path = tmp_path / "ring.steen"
    path.write_text(source, encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == "error: %s at %s\n" % (message, at)


# ------------------------------------------------ quoted operation words

# an operation with one error in it: (text, column of the error in the
# text, the message after "line:col: "); the last ones are read at prime 3
OPERATION_ERRORS = {
    "missing-exponent": ("Sq Sq^1", 4, "found 'Sq' (expected '^')"),
    "missing-exponent-value": ("Sq^ Sq^1", 5, "found 'Sq' (expected an exponent)"),
    "missing-exponent-value-at-end": ("Sq^2 Sq^", 9,
                                      "found 'end of input' (expected an exponent)"),
    "bad-character": ("Sq^3 %", 6, "unexpected character '%'"),
    "hash-is-no-comment": ("Sq^1 # Sq^2", 6, "unexpected character '#'"),
    "wrong-family": ("Sq^1 P^1", 6, "P is an odd-prime letter (expected 'Sq' or 'b')"),
    "trailing-star": ("Sq^1 *", 7, "found 'end of input' (expected 'Sq' or 'P' or 'b')"),
    "trailing-plus": ("Sq^1 +", 7,
                      "found 'end of input' (expected 'Sq' or 'P' or 'b' or an integer)"),
    "trailing-minus": ("Sq^2 - ", 8,
                       "found 'end of input' (expected 'Sq' or 'P' or 'b' or an integer)"),
    "stray-token": ("Sq^1 2 Sq^2", 6, "found '2' (expected '+' or '-')"),
    "letters-together": ("b bb", 3, "found 'bb' (expected 'Sq' or 'P' or 'b')"),
    "letters-together-2": ("Sq^1 Sq2", 6, "found 'Sq2' (expected 'Sq' or 'P' or 'b')"),
    "wrong-family-3": ("P^1 Sq^1", 5, "Sq is a prime-2 letter (expected 'P' or 'b')"),
    "letters-together-3": ("bP^1", 1, "found 'bP' (expected 'Sq' or 'P' or 'b')"),
}


def _prime(case):
    return 3 if case.endswith("-3") else 2


def _operation_places(op, prime):
    """(file line, CLI argv) pairs that put op in an apply, in an adem and
    in an adem expectation."""
    ring = "CLASSIFYING%d" % prime
    return [
        ('apply "%s" to x1 in %s;' % (op, ring), ["apply", op, "x1", "--ring", ring]),
        ('adem "%s" prime = %d;' % (op, prime), ["adem", op, "--prime", str(prime)]),
        ('adem "b" prime = %d expect "%s";' % (prime, op),
         ["adem", "b", "--prime", str(prime), "--expect", op]),
    ]


@pytest.mark.parametrize("case", sorted(OPERATION_ERRORS))
def test_operation_errors_carry_their_file_position(case, tmp_path, capsys):
    op, col, message = OPERATION_ERRORS[case]
    for line, argv in _operation_places(op, _prime(case)):
        quote = line.index('"%s"' % op) + 1
        path = tmp_path / "op.steen"
        path.write_text("# three lines\n\nnormalize x1 in CLASSIFYING2;\n%s\n" % line,
                        encoding="utf-8")
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: 4:%d: %s\n" % (quote + col, message), line
        assert captured.out == ""
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: 1:%d: %s\n" % (col, message), argv
        assert captured.out == ""


def test_hash_in_a_command_line_operation_comes_before_later_lines(capsys):
    # the scan would skip "# x" as a comment and stop at the '%' below it
    for argv in (["adem", "Sq^1 # x\n%"], ["apply", "Sq^1 # x\n%", "x1", "--ring", "CLASSIFYING2"]):
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: 1:6: unexpected character '#'\n"


def test_operation_error_examples(tmp_path, capsys):
    path = tmp_path / "apply.steen"
    path.write_text(R2 + '}\n\napply "Sq^2 Sq^" to w in R;\n', encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: 6:16: found 'end of input' (expected an exponent)\n"
    )
    path = tmp_path / "adem.steen"
    path.write_text('# adem\n\nadem "Sq^2 Sq^2" expect "Sq^3 %";\n', encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == "error: 3:31: unexpected character '%'\n"


def test_empty_operation_and_prime_checks_keep_their_messages():
    for text, prime, message in [
        ("", 2, "1:1: empty operation (expected 'Sq' or 'P' or 'b' or 'integer')"),
        ("P^1", 2, "1:1: P is an odd-prime letter (expected 'Sq' or 'b')"),
        ("b Sq^2", 5, "1:3: Sq is a prime-2 letter (expected 'P' or 'b')"),
    ]:
        with pytest.raises(DslSyntaxError) as e:
            parse_operation(text, prime)
        assert str(e.value) == message


def test_action_letters_and_operation_letters_share_one_grammar():
    # the same letter errors, at the letter, in both places
    for letter in ("bb", "Sq2", "Q^1"):
        with pytest.raises(DslSyntaxError) as in_action:
            dsl.parse("ring R {\n  prime = 2;\n  action %s(w) = 0;\n}" % letter)
        assert str(in_action.value).startswith("3:10: found %r" % letter.split("^")[0])
        with pytest.raises(DslSyntaxError) as in_word:
            parse_operation(letter, 2)
        assert str(in_word.value).startswith("1:1: found %r" % letter.split("^")[0])


OP_PIECES = ["Sq", "P", "b", "^", "0", "1", "2", "12", "\u0663", "*", "+", "-", " ", "x",
             "#", "%"]


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(OP_PIECES), max_size=12).map("".join), st.sampled_from([2, 3]))
def test_operation_words_the_grammar_reads_read_as_before(text, prime):
    try:
        terms = dsl._Parser(text).parse_operation(prime)
    except DslSyntaxError:
        return
    # the old parser took no whitespace after the last token
    assert SteenrodElement(prime, terms) == SteenrodElement(
        prime, reference_parse_operation(text.rstrip(), prime)
    )


@st.composite
def operation_word(draw):
    """A well-formed operation word: terms with an optional coefficient and
    letters, each separator one the grammar allows."""
    prime = draw(st.sampled_from([2, 3, 5]))
    family = "Sq" if prime == 2 else "P"
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        letters = ["b" if draw(st.booleans()) else "%s^%d" % (family, draw(st.integers(0, 12)))
                   for _ in range(draw(st.integers(0, 4)))]
        text = draw(st.sampled_from([" * ", "*", " "])).join(letters)
        if not letters or draw(st.booleans()):
            coeff = str(draw(st.integers(0, 20)))
            text = coeff + (draw(st.sampled_from([" ", "*", " * "])) + text if letters else "")
        terms.append(text)
    joins = [draw(st.sampled_from([" + ", " - ", "+", "-"])) for _ in terms[1:]]
    return "".join(t + j for t, j in zip(terms, joins + [""])), prime


@settings(max_examples=500, deadline=None)
@given(operation_word())
def test_well_formed_operation_words_read_as_before(case):
    text, prime = case
    assert parse_operation(text, prime) == SteenrodElement(
        prime, reference_parse_operation(text, prime)
    )


def test_old_forms_the_grammar_now_rejects():
    # read by the old operation parser, an error now
    for text in ("bb", "b bSq^1", "Sq^1 *", "* Sq^1", "Sq^1 * * Sq^2", "2*", "Sq^1 *+ Sq^2"):
        reference_parse_operation(text, 2)
        with pytest.raises(DslSyntaxError):
            parse_operation(text, 2)
