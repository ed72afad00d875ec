"""Exception types shared across the package."""

from __future__ import annotations


class PosetDualError(Exception):
    """Base class for all errors raised by this package."""


class CycleError(PosetDualError):
    """The supplied relation has a cycle and is not a partial order."""


class UnknownElement(PosetDualError):
    """An operation referenced an element that is not in the poset/model."""


class OracleBoundExceeded(PosetDualError):
    """A brute-force oracle was asked to run beyond its configured bound."""


class BadChainIndex(PosetDualError):
    """A chain index is out of range for the given chain partition."""


class ModelError(PosetDualError):
    """A model failed structural validation."""


class PredicateError(ModelError):
    """A predicate is malformed, or names a process the model does not have."""


class NotTotallyOrdered(ModelError):
    """Two elements assigned to the same process/chain are concurrent."""

    def __init__(self, process: int, message: str = ""):
        self.process = process
        super().__init__(message or f"process {process} is not totally ordered")


class IndexGap(ModelError):
    """Per-process indices are not the consecutive sequence 1..n_i (or 0..n_i)."""

    def __init__(self, process: int, message: str = ""):
        self.process = process
        super().__init__(message or f"process {process} has malformed indices")


class EmptyProcess(ModelError):
    """A declared process has no events and empty processes are not allowed."""

    def __init__(self, process: int):
        self.process = process
        super().__init__(f"process {process} has no events")


class NotWidthAntichain(PosetDualError):
    """The given set is not an antichain of maximum size."""


class NotConsistent(PosetDualError):
    """The given event set is not downward closed under happened-before."""


class NotWidthExtensible(PosetDualError):
    """The poset is not width-extensible; carries a counterexample antichain."""

    def __init__(self, witness: frozenset):
        self.witness = witness
        super().__init__(f"poset is not width-extensible: no maximum antichain "
                         f"contains {sorted(witness)}")


class InvalidStateModel(PosetDualError):
    """A state-to-event conversion failed; carries the invalidity report."""

    def __init__(self, report):
        self.report = report
        super().__init__("state model does not correspond to any event model")


class BadMarking(PosetDualError):
    """A checkpoint marking is malformed for the given state model."""


class GuardExceeded(PosetDualError):
    """An enumeration passed its explicit output cap."""


class ConfigError(PosetDualError):
    """A setting read from the environment has an invalid value."""


class SchemaError(PosetDualError):
    """A trace file does not conform to its declared schema."""


class UsageError(PosetDualError):
    """A command cannot run as asked: wrong trace kind, bad option value,
    unknown property name or unwritable output."""
