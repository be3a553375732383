"""L0: trace record/replay — below the whole channel stack.

This package defines the on-disk binary trace format, the recording
wrapper that captures a live victim without perturbing it, the replay
victim that feeds a recording back through the unchanged L1–L4
observer stack, and :func:`play` to push a record's addresses into
any transport.

Layering: L0 sits *below* the four channel layers and the attack core.
It may import only ``repro.targets`` (the victim-facing data model),
``repro.cache`` (geometry), ``repro.seeding``, and
``repro.staticcheck.secrets`` (annotations).  Importing
``repro.channel``, ``repro.core``, or ``repro.engine`` from here is a
layering violation and is rejected by the static layering checker.
"""

from .binio import (
    BINARY_SUFFIX,
    MAGIC,
    dumps,
    loads,
    read_binary,
    write_binary,
)
from .errors import (
    TraceError,
    TraceExhaustedError,
    TraceFormatError,
    TraceMismatchError,
    TraceVersionError,
)
from .format import (
    FORMAT_VERSION,
    KIND_ACCESSES,
    KIND_INDICES,
    KIND_PAIR,
    EncryptionRecord,
    TraceFile,
    TraceHeader,
)
from .recorder import RecordingVictim, TraceRecorder
from .replay import ReplayVictim, play

__all__ = [
    "BINARY_SUFFIX",
    "MAGIC",
    "FORMAT_VERSION",
    "KIND_PAIR",
    "KIND_ACCESSES",
    "KIND_INDICES",
    "TraceError",
    "TraceFormatError",
    "TraceVersionError",
    "TraceMismatchError",
    "TraceExhaustedError",
    "TraceHeader",
    "EncryptionRecord",
    "TraceFile",
    "dumps",
    "loads",
    "read_binary",
    "write_binary",
    "TraceRecorder",
    "RecordingVictim",
    "ReplayVictim",
    "play",
]
