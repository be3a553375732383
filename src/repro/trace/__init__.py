"""L0: trace record/replay — below the whole channel stack.

This package defines the on-disk trace formats (binary + JSONL), the
recording wrapper that captures a live victim without perturbing it,
the replay victim that feeds a recording back through the unchanged
L1–L4 observer stack, :func:`play` to push a record's addresses into
any transport, and a parser for foreign malloc/free + access logs.

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
    ExternalTraceError,
    TraceError,
    TraceExhaustedError,
    TraceFormatError,
    TraceMismatchError,
    TraceVersionError,
)
from .external import ExternalTraceParser, ParseStats, parse_external_log
from .format import (
    FORMAT_NAME,
    FORMAT_VERSION,
    KIND_ACCESSES,
    KIND_INDICES,
    KIND_PAIR,
    EncryptionRecord,
    TraceFile,
    TraceHeader,
    classify_address,
)
from .jsonio import (
    JSONL_SUFFIX,
    dump_jsonl,
    load_jsonl,
    read_jsonl,
    write_jsonl,
)
from .recorder import RecordingVictim, TraceRecorder
from .replay import ReplayVictim, play

__all__ = [
    "BINARY_SUFFIX",
    "MAGIC",
    "JSONL_SUFFIX",
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "KIND_PAIR",
    "KIND_ACCESSES",
    "KIND_INDICES",
    "TraceError",
    "TraceFormatError",
    "TraceVersionError",
    "TraceMismatchError",
    "TraceExhaustedError",
    "ExternalTraceError",
    "TraceHeader",
    "EncryptionRecord",
    "TraceFile",
    "classify_address",
    "dumps",
    "loads",
    "read_binary",
    "write_binary",
    "dump_jsonl",
    "load_jsonl",
    "read_jsonl",
    "write_jsonl",
    "TraceRecorder",
    "RecordingVictim",
    "ReplayVictim",
    "play",
    "ExternalTraceParser",
    "ParseStats",
    "parse_external_log",
]
