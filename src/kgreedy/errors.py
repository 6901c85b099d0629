"""Exception hierarchy shared by all kgreedy modules.

A class exists only where an operation or the CLI tells it apart: every
network defect is a NetworkValidationError and every failed scripted round
a ScriptError, with the specifics in the message.  A failed oracle
self-check is a bug, so it raises RuntimeError.
"""


class KGreedyError(Exception):
    """Base class for every error raised by this package."""


class NetworkValidationError(KGreedyError):
    """A project network violates a structural invariant."""


# -- plans and crashing -------------------------------------------------------

class PlanOutOfBoundsError(KGreedyError):
    """A plan assigns an edge more shortening than its bounds allow."""


class NotCrashableError(KGreedyError):
    """The requested duration reduction is impossible (k exceeds k_max)."""


class NotKCrashingError(KGreedyError):
    """A plan claimed to be k-crashing does not reduce the duration by k."""


# -- subsequence scripts ------------------------------------------------------

class ScriptError(KGreedyError):
    """A scripted round is not an increasing subsequence of the residue, or is
    shorter than the residue's longest one."""
