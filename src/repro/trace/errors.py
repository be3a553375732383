"""Typed errors of the L0 trace layer.

Every failure mode of the trace subsystem raises a subclass of
:class:`TraceError`, so callers can distinguish *format* problems (a
truncated or corrupt file, a version we cannot read) from *replay*
problems (the attack asked for something the recording does not
contain).  A short stream is never silently returned: decoding stops
with a :class:`TraceFormatError` the moment the byte stream ends early.
"""

from __future__ import annotations


class TraceError(ValueError):
    """Base class of every trace-layer error.

    Subclasses :class:`ValueError`: every trace failure is ultimately
    a value that cannot be used (a corrupt byte stream, an impossible
    header, a record the replay cannot serve), and the data-model
    validations raise through the same hierarchy.
    """


class TraceFormatError(TraceError):
    """The serialized trace is unreadable: bad magic, corrupt header,
    truncated records, checksum mismatch, or trailing garbage."""


class TraceVersionError(TraceFormatError):
    """The trace declares a format version this reader cannot decode."""


class TraceMismatchError(TraceError):
    """Replay drifted from the recording: the consumer asked for a
    plaintext, kind, or round window the next record does not carry
    (usually a config/seed mismatch between record and replay time)."""


class TraceExhaustedError(TraceError):
    """The replay consumer asked for more records than were recorded."""

