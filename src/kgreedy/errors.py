"""Exception hierarchy shared by all kgreedy modules."""


class KGreedyError(Exception):
    """Base class for every error raised by this package."""


# -- network validation -------------------------------------------------------

class NetworkValidationError(KGreedyError):
    """A project network violates a structural invariant."""


class CyclicGraphError(NetworkValidationError):
    pass


class MultipleSourcesError(NetworkValidationError):
    pass


class MultipleSinksError(NetworkValidationError):
    pass


class UnknownNodeError(NetworkValidationError):
    pass


class DuplicateEdgeIdError(NetworkValidationError):
    pass


class BadEdgeBoundsError(NetworkValidationError):
    pass


class BadCostScheduleError(NetworkValidationError):
    pass


# -- plans and crashing -------------------------------------------------------

class PlanOutOfBoundsError(KGreedyError):
    """A plan assigns an edge more shortening than its bounds allow."""


class NotCrashableError(KGreedyError):
    """The requested duration reduction is impossible (k exceeds k_max).

    `iteration` is the 1-based greedy step that failed, when applicable.
    """

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration


class NotKCrashingError(KGreedyError):
    """A plan claimed to be k-crashing does not reduce the duration by k."""


class ConvexNotSupportedError(KGreedyError):
    """The operation is defined for constant per-day cost schedules only."""


# -- subsequence scripts ------------------------------------------------------

class ScriptError(KGreedyError):
    """Base class for scripted-removal failures."""

    def __init__(self, message: str, round_index: int):
        super().__init__(message)
        self.round_index = round_index


class ScriptNotIncreasingError(ScriptError):
    """A scripted round is not an increasing subsequence of the residue."""


class ScriptNotMaximalError(ScriptError):
    """A scripted round is shorter than the residue's longest increasing subsequence."""

    def __init__(self, message: str, round_index: int, script_length: int, lis_length: int):
        super().__init__(message, round_index)
        self.script_length = script_length
        self.lis_length = lis_length


# -- oracles ------------------------------------------------------------------

class BudgetExceededError(KGreedyError):
    """An exhaustive oracle would enumerate more states than its budget allows."""
