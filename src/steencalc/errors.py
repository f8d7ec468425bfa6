"""Exception types shared across the package.

Every error raised on purpose derives from SteencalcError so callers can
catch one type at the boundary (the CLI maps them to exit code 2).
"""


class SteencalcError(Exception):
    """Base class for all errors raised deliberately by this package."""


class InvalidArgument(SteencalcError, ValueError):
    """A query argument lies outside the range its computation is defined on."""


# ---------------------------------------------------------------- operations


class MixedPrimes(SteencalcError):
    """Two operands living over different primes were combined."""


class NotAdmissible(SteencalcError):
    """An admissible-only query (excess, ...) was made on a non-admissible word."""


class InternalNonTermination(SteencalcError):
    """A rewriting loop exceeded its iteration bound; indicates a bug."""


# ---------------------------------------------------------------------- rings


class NonHomogeneousInput(SteencalcError):
    """A polynomial that must be homogeneous (degree and twist) is not."""


class RuleNonTermination(SteencalcError):
    """A rewrite rule set does not strictly decrease its termination measure."""


class MissingActionComponent(SteencalcError):
    """A needed Steenrod action component of a generator was never declared."""


class OmegaUndeclared(SteencalcError):
    """An operation needing the distinguished degree-1 class was called without one."""


# ----------------------------------------------------------------- obstructions


class MissingFrobeniusData(SteencalcError):
    """A Frobenius computation touched a generator without an exponent."""


class MissingCodim(SteencalcError):
    """An obstruction needing a codimension was given a class without one."""


# ---------------------------------------------------------------------- corpus


class NotProjectiveBundleScenario(SteencalcError):
    """The presentation lacks the nilpotent hyperplane-class shape."""


class ScenarioIncomplete(SteencalcError):
    """A scripted scenario is missing a required ingredient."""


# ------------------------------------------------------------------------ dsl


class DslSyntaxError(SteencalcError):
    """Parse failure; carries position and the expected-token set."""

    def __init__(self, message, line, col, expected=()):
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        suffix = ""
        if self.expected:
            shown = (e if " " in e else "'%s'" % e for e in self.expected)
            suffix = " (expected %s)" % " or ".join(shown)
        super().__init__("%d:%d: %s%s" % (line, col, message, suffix))


class DuplicateGenerator(SteencalcError):
    """The same generator name was declared twice in one ring."""


class UnknownGenerator(SteencalcError):
    """A polynomial referenced a name not declared in its ring."""


class NonHomogeneous(SteencalcError):
    """A rule or action in a source file mixes degrees or twists."""
