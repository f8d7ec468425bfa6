"""Built-in presentations and regression scenarios.

Each scenario is a source file in the input language, NAME.steen in the
package's data directory (or in the directory named by STEENCALC_CORPUS_DIR),
defining a ring called NAME and the queries run against it; the queries also
see any other ring or bundle the file declares.  The files are the
scenarios: to add one, drop in a file.  Where a check cannot be phrased
as a single query (products of several operation values), EXTRA_CHECKS adds
a named identity evaluated against a frozen literal.  The corpus verbs are
answered by runner.execute_query, which caches a run by the scenarios it
runs; run_scenario refuses a corpus verb inside a scenario file.

The Thom-space rings MO3 and MO5 declare their actions through the Wu
formula Sq^i(w_j) = sum_t binom(j+t-i-1, t) w_{i-t} w_{j+t} with w_0 = 1 and
w_k = 0 above the rank, and Sq^i(s) = w_i s on the Thom class, whose top
operation s^2 = w_n s is carried by a rewrite rule.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

from . import dsl
from .errors import ScenarioIncomplete, SteencalcError, UnknownGenerator
from .rings import GeneratorSpec, RingPresentation

ENV_DATA_DIR = "STEENCALC_CORPUS_DIR"
_PACKAGE_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


@dataclass(eq=False)
class Scenario:
    """A scenario file's text and its built program, whose ring NAME the
    queries and extra checks are about.  Hashed by identity, as a
    presentation is, so a corpus answer can be cached by its scenarios."""

    name: str
    source: str
    program: dsl.Program
    # label -> callable(presentation) returning (ok, detail)
    extra_checks: tuple = ()

    @property
    def presentation(self) -> RingPresentation:
        return self.program.rings[self.name]

    @property
    def queries(self):
        return self.program.queries


@dataclass
class StepResult:
    label: str
    ok: bool
    detail: str = ""


@dataclass
class ScenarioReport:
    name: str
    steps: tuple

    @property
    def ok(self):
        return all(s.ok for s in self.steps)

    def render(self):
        lines = ["scenario %s: %s" % (self.name, "pass" if self.ok else "FAIL")]
        for s in self.steps:
            mark = "ok  " if s.ok else "FAIL"
            lines.append("  [%s] %s" % (mark, s.label))
            if s.detail and not s.ok:
                for d in s.detail.splitlines():
                    lines.append("         " + d)
        return "\n".join(lines)


# ------------------------------------------------------- identity checks


def _sw_composite(pres, x):
    """Sq^2 Sq^1(x) * x^2 + Sq^1(x)^3 + Sq^1(x) * Sq^2(x) * x."""
    sq1 = pres.apply_letter(1, x)
    sq2 = pres.apply_letter(2, x)
    sq2sq1 = pres.apply_letter(2, sq1)
    return sq2sq1 * x * x + sq1 * sq1 * sq1 + sq1 * sq2 * x


def _composite_check(label, x_poly, expect_poly):
    def check(pres):
        x = dsl.poly_to_element(pres, dsl.parse_poly(x_poly))
        got = _sw_composite(pres, x)
        want = dsl.poly_to_element(pres, dsl.parse_poly(expect_poly))
        if got == want:
            return True, got.render()
        return False, "got %s, wanted %s" % (got.render(), want.render())
    return (label, check)


# Scenario name -> (label, check) pairs run after the file's queries.  In
# characteristic 2, MO5's identity is the composite on s vanishing.
EXTRA_CHECKS = {
    "MO3": (
        _composite_check(
            "composite operator on w2*s",
            "w2*s",
            "w1*w2*w3^4*s + w3^5*s",
        ),
        _composite_check(
            "composite operator on (w1^2 + w2)*s",
            "(w1^2 + w2)*s",
            "w1^3*w2^3*w3^2*s + w1^2*w2^2*w3^3*s + w1*w2*w3^4*s + w3^5*s",
        ),
    ),
    "MO5": (
        _composite_check(
            "Sq^2 Sq^1(s)*s^2 = Sq^1(s)^3 + Sq^1(s)*Sq^2(s)*s", "s", "0"
        ),
    ),
}


# ------------------------------------------------------------ the registry


def _corpus_dir() -> str:
    """The directory the scenarios are read from."""
    return os.environ.get(ENV_DATA_DIR) or _PACKAGE_DATA_DIR


def _path(directory: str, name: str) -> str:
    return os.path.join(directory, name + ".steen")


def read_source(path: str) -> str:
    """The text of a source file, which must be UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise SteencalcError("%s is not UTF-8: byte 0x%02x at offset %d"
                             % (path, exc.object[exc.start], exc.start)) from None


@lru_cache(maxsize=None)
def _load(directory: str, name: str) -> Scenario:
    path = _path(directory, name)
    if not os.path.isfile(path):
        raise ScenarioIncomplete("no scenario %r in %s" % (name, directory))
    source = read_source(path)
    program = dsl.build_program(dsl.parse(source))
    if name not in program.rings:
        raise ScenarioIncomplete("scenario %s must define ring %s" % (name, name))
    return Scenario(name, source, program, EXTRA_CHECKS.get(name, ()))


def get_scenario(name: str) -> Scenario:
    """The scenario NAME of the current corpus directory, parsed and built
    once per (directory, name)."""
    return _load(_corpus_dir(), name)


def scenario_names():
    return sorted(
        f[: -len(".steen")] for f in os.listdir(_corpus_dir()) if f.endswith(".steen")
    )


def resolve_ring(name: str) -> RingPresentation:
    """Presentation of a built-in scenario ring, by scenario name."""
    directory = _corpus_dir()
    try:
        return _load(directory, name).presentation
    except ScenarioIncomplete:
        if not os.path.isfile(_path(directory, name)):
            raise UnknownGenerator("no ring %r in scope" % name) from None
        raise


def resolvers(program):
    """(resolve_ring, resolve_bundle) over a program's rings and bundles
    (none when program is None); other ring names fall back to the
    built-in scenario rings."""
    rings = program.rings if program else {}
    bundles = program.bundles if program else {}

    def ring(name):
        return rings[name] if name in rings else resolve_ring(name)

    def bundle(name):
        if name not in bundles:
            raise UnknownGenerator("no bundle %r in scope" % name)
        decl = bundles[name]
        return decl, ring(decl.ring)

    return ring, bundle


# ---------------------------------------------------------------- running


def run_scenario(s: Scenario) -> ScenarioReport:
    """The scenario's queries, in the scope of its own rings and bundles,
    then its extra checks.  A corpus verb is refused: a scenario cannot
    run itself."""
    from .runner import execute_query  # local import: runner imports this module

    ring, bundle = resolvers(s.program)
    steps = []
    for query in s.queries:
        if isinstance(query, dsl.CorpusQuery):
            raise SteencalcError("corpus queries are not available here")
        result = execute_query(query, ring, bundle)
        steps.append(StepResult(result.label, result.passed, "\n".join(result.lines[1:])))
    for label, check in s.extra_checks:
        ok, detail = check(s.presentation)
        steps.append(StepResult(label, ok, detail))
    return ScenarioReport(s.name, tuple(steps))


# ----------------------------------------------------- the big model ring


def model_ring(ell: int, n: int = 4) -> RingPresentation:
    """Cohomology of an n-fold product of cyclic classifying spaces: the
    faithful stage the operation algebra acts on."""
    if ell == 2:
        gens = [GeneratorSpec("x%d" % i, 1) for i in range(1, n + 1)]
        return RingPresentation(2, gens)
    gens = []
    width = 2 * n
    for i in range(1, n + 1):
        beta_target = [0] * width
        beta_target[n + i - 1] = 1
        gens.append(
            GeneratorSpec(
                "x%d" % i, 1, parity="odd",
                action={"b": {tuple(beta_target): 1}},
            )
        )
    for i in range(1, n + 1):
        gens.append(GeneratorSpec("y%d" % i, 2, action={"b": {}}))
    return RingPresentation(ell, gens)
