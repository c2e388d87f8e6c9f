"""Module-aware dynamic CFI policy checks over control-flow event traces.

The package models a protected process as a set of loaded ELF modules,
derives per-module sets of legal control-transfer targets from their
symbol tables and import/export relationships, verifies every transfer
in a recorded trace (calls, jumps, returns via a trusted shadow stack),
and quantifies the achieved target reduction.
"""

from .dair import DairTracker, TransferRecord, compute_universe
from .elf import (
    FixtureSpec,
    InstructionMap,
    ModuleImage,
    RelocSpec,
    SidecarTable,
    SymbolRecord,
    SymbolSpec,
    build_fixture,
    derive_instruction_map,
    load_sidecar,
    parse_module,
    sidecar_lines,
)
from .errors import (
    DynCfiError,
    ElfFormatError,
    FixtureError,
    MetricError,
    MutationError,
    ProcessError,
    ResolutionError,
    ShadowStackError,
    SidecarError,
    TraceError,
)
from .policy import Verdict, check_call, check_jump, scan_callbacks
from .process import CallbackFinding, LoadedModule, ProcessImage, TransferLookupTable
from .shadow import ShadowStack
from .trace import (
    EnforcementReport,
    MutationSpec,
    ReplayConfig,
    Replayer,
    TraceEvent,
    events_to_jsonl,
    generate_adversarial_trace,
    parse_trace,
    replay,
)

__version__ = "0.1.0"
