"""Exception types shared across the package."""


class AdvnetError(Exception):
    """Base class for all errors raised by this package."""


class NotPrimePower(AdvnetError):
    pass


class TooLarge(AdvnetError):
    pass


class AlphabetMismatch(AdvnetError):
    pass


class EmptyCode(AdvnetError):
    pass


class EmptyFamily(AdvnetError):
    pass


class SearchLimitExceeded(AdvnetError):
    """A search ran out of its limit.  `incumbent` holds what it had found
    when it stopped: from `search.max_independent_set`, the vertices of the
    largest independent set found, ascending; from
    `hamming.brute_force_capacity`, the words of the inexact capacity's
    witness, a good code; empty from other searches."""

    def __init__(self, message, incumbent=()):
        self.incumbent = incumbent
        super().__init__(message)


class InvalidParams(AdvnetError):
    pass


class SingletonCode(AdvnetError):
    pass


class FieldTooSmall(AdvnetError):
    pass


class NoCodewordInRange(AdvnetError):
    pass


class UnsupportedVariant(AdvnetError):
    pass


class IndexOutOfRange(AdvnetError):
    pass


class CyclicGraph(AdvnetError):
    pass


class NotACut(AdvnetError):
    pass


class BadFreeze(AdvnetError):
    pass


class MissingCodeFunction(AdvnetError):
    pass


class Infeasible(AdvnetError):
    """Demands past the cut-set bound: those of the source indices `sources`
    sum past their min cut to `terminal`, less the slack checked."""

    def __init__(self, sources, terminal):
        self.sources = sources
        self.terminal = terminal
        super().__init__(f"demand violated for sources {sorted(sources)} at {terminal}")


class DrawsExhausted(AdvnetError):
    def __init__(self, terminal, message=None):
        self.terminal = terminal
        super().__init__(message or f"no successful draw; last failing terminal: {terminal}")


class UnsupportedSources(AdvnetError):
    pass
