"""Exception types shared across the package."""

from __future__ import annotations


class ConfigError(ValueError):
    """An experiment or execution configuration is internally inconsistent."""


class SettingMismatchError(ConfigError):
    """Components declare incompatible setting axes (timing/sizing)."""


class ExecutionFault(RuntimeError):
    """A processor violated an execution-model rule; the run is aborted.

    Carries the offending processor id, the timeslot, and the violated
    clause so tests and the CLI can report precisely what went wrong.
    """

    def __init__(self, processor: str, slot: int, clause: str):
        self.processor = processor
        self.slot = slot
        self.clause = clause
        super().__init__(f"processor {processor!r} at slot {slot}: {clause}")

    def __reduce__(self):
        # rebuilt from its fields, so that a fault raised in a worker
        # process reaches the caller as itself
        return type(self), (self.processor, self.slot, self.clause)


class ScheduleViolationError(ValueError):
    """A timing rule is inconsistent with the synchrony schedule."""


class TranscriptFormatError(ValueError):
    """A serialized transcript is malformed; the message names the line."""


class DanglingBlockError(KeyError):
    """A block's parent is absent from the set under inspection."""


class LedgerTooLargeError(ValueError):
    """The exhaustive certificate search refuses ledgers above its cap."""
