"""Exception types shared across the package.

Every predicate that has a precondition raises one of these instead of
returning a junk value, so callers (and the command line driver) can
distinguish "false" from "not applicable".
"""


class TautiltError(Exception):
    """Base class for all package errors."""


class ParseError(TautiltError):
    """Malformed algebra file, module expression, or element expression."""


class MixedEndpointsError(TautiltError):
    """A relation mixes paths with different sources or targets."""


class NonAdmissibleError(TautiltError):
    """The relation ideal does not contain any radical power up to the cap,
    or a relation involves a path of length < 2."""


class FieldTooSmallError(TautiltError):
    """The prime is too small for the trace certificates used here: an
    algebra of dimension d needs p > 4 * d**2, for its modules and its
    two-term complexes alike."""


class PrimeTooLargeError(TautiltError):
    """The prime is so large that sums of products of residues overflow
    64-bit integers; an algebra of dimension d needs
    d * (p-1)**2 + (p-1) < 2**63."""


class AlgebraMismatchError(TautiltError):
    """Two objects that must live over the same algebra do not."""


class ZeroModuleError(TautiltError):
    """Operation undefined on the zero module."""


class RandomnessExhaustedError(TautiltError):
    """The splitter found no endomorphism that splits an object whose
    endomorphism ring fails the local test, within its budget of random
    combinations.  Such a ring looks local with a residue field larger
    than F_p, say F_{p^2}, which the package does not handle; the command
    line reports it as an input error (exit 2)."""


class NotSelfinjectiveError(TautiltError):
    """Operation requires a selfinjective algebra."""


class NotSiltingError(TautiltError):
    """Operation requires a two-term silting complex."""


class NotSupportTauTiltingError(TautiltError):
    """Operation requires a support tau-tilting pair."""


class MutationAmbiguousError(TautiltError):
    """Silting mutation did not produce exactly one two-term candidate;
    this is an internal assertion and should never fire."""


class TheoremViolationError(TautiltError):
    """A runtime cross-check of a structural identity failed; this is an
    internal assertion and should never fire."""
