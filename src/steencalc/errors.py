"""Exception types shared across the package.

Every error raised on purpose derives from SteencalcError so callers can
catch one type at the boundary (the CLI maps them to exit code 2).
"""


class SteencalcError(Exception):
    """Base class for all errors raised deliberately by this package.
    `message` is the text without a position; `span` is the (line, col) in
    a source file of what is at fault, None when the error does not come
    from a file, and the error's text ends in it."""

    def __init__(self, message="", span=None):
        super().__init__(message + (" at %d:%d" % span if span else ""))
        self.message = message
        self.span = span


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
    """Parse failure; carries the message without its position, the
    position (also as `span`), and the expected-token set.  Its text starts
    with line:col instead of ending in it."""

    def __init__(self, message, line, col, expected=()):
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        suffix = ""
        if self.expected:
            shown = (e if " " in e else "'%s'" % e for e in self.expected)
            suffix = " (expected %s)" % " or ".join(shown)
        super().__init__("%d:%d: %s%s" % (line, col, message, suffix))
        self.message, self.span = message, (line, col)


class DslSemanticError(SteencalcError):
    """A source file parses but means nothing valid; `span` is the
    (line, col) of the declaration at fault."""


class DuplicateGenerator(DslSemanticError):
    """A generator, action, ring or bundle was declared twice."""


class UnknownGenerator(DslSemanticError):
    """A polynomial, rule, action or bundle referenced an undeclared name."""


class NonHomogeneous(DslSemanticError):
    """A ring in a source file mixes degrees or twists, or uses the wrong
    operation family for its prime."""
