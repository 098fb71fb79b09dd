"""Exception types raised by the quantum observer toolkit.

Each numerical failure mode gets its own class so callers (in particular the
transformation-based observer designer, which must report why it reverted to
the augmentation-based design) can branch on the reason without string
matching. ``reason_code`` gives a short stable identifier for logs and CSV
rows.

A stack routine, which solves many problems in one call, raises none of
these: it returns one outcome per slice, the slice's result or the typed
error the call on that slice alone would raise. :func:`single_outcome` and
:func:`on_successes` handle such lists.
"""


class QobsError(Exception):
    """Base class for all errors raised by this package."""

    @property
    def reason_code(self) -> str:
        return type(self).__name__


class DomainError(QobsError, ValueError):
    """An argument lies outside the domain an operation is defined on."""


class FileFormatError(QobsError, ValueError):
    """A system description file is malformed; message carries path/key context."""


class NonRealResult(QobsError):
    """A matrix that must be real came out with too large an imaginary part."""


class NoStabilizingSolution(QobsError):
    """The filter Riccati equation has no stabilizing solution."""


class NotHurwitz(QobsError):
    """A matrix required to be Hurwitz has an eigenvalue too close to the closed right half plane."""


class ImaginaryAxisEigenvalue(QobsError):
    """An eigenvalue sits on (or numerically too close to) the imaginary axis."""


class WrongSplitCount(QobsError):
    """The stable invariant subspace does not have half the state dimension."""


class SingularX1(QobsError):
    """The upper block of the stable-subspace basis is singular."""


class SingularX(QobsError):
    """The skew Riccati solution is singular."""


class NonRealT(QobsError):
    """The state transformation could not be completed as a real matrix."""


class SingularResolvent(QobsError):
    """A frequency sample coincides with a pole of one of the systems."""


def single_outcome(outcomes: list):
    """The result of a stack of one, or the typed error of its slice raised."""
    (outcome,) = outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def on_successes(outcomes: list, stack_routine) -> list:
    """``outcomes`` with each result replaced by the output ``stack_routine`` gives it; errors stay in place.

    ``stack_routine`` takes the indices of the results in ``outcomes`` and
    returns one output, or one typed error, per index, all in one call.
    """
    done = [k for k, outcome in enumerate(outcomes) if not isinstance(outcome, Exception)]
    mapped = list(outcomes)
    for k, output in zip(done, stack_routine(done) if done else ()):
        mapped[k] = output
    return mapped
