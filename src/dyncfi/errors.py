"""Exception hierarchy.

Every error carries a short machine-readable ``code`` (kebab-case) naming
the failing structure or condition, plus a human-readable message.
"""

from __future__ import annotations


class DynCfiError(Exception):
    """Base class for all errors raised by this package."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class ElfFormatError(DynCfiError):
    """Malformed or unsupported ELF input.

    Codes: ``malformed-header``, ``truncated-section``, ``malformed-section``.
    """


class FixtureError(DynCfiError):
    """Internally inconsistent fixture description (code ``inconsistent-spec``)."""


class SidecarError(DynCfiError):
    """Bad instruction-boundary sidecar (codes ``sidecar-module-mismatch``,
    ``malformed-sidecar``)."""


class ProcessError(DynCfiError):
    """Illegal process-image mutation.

    Codes: ``overlapping-base``, ``misaligned-base``, ``unknown-module``,
    ``base-out-of-range`` (the module would end past the 32-bit address
    space), ``unsupported-class`` (the image is not ELF32).
    """


class ResolutionError(DynCfiError):
    """Symbol resolution failure (code ``unresolved-symbol``)."""


class ShadowStackError(DynCfiError):
    """Shadow stack bound exceeded (code ``depth-exceeded``)."""


class TraceError(DynCfiError):
    """Structurally invalid trace input, distinct from a CFI denial.

    Codes: ``malformed-trace``, ``address-outside-modules``.
    Carries an optional 1-based ``line`` or event ``seq`` for positioning.
    """

    def __init__(self, code: str, message: str, *, line: int | None = None,
                 seq: int | None = None) -> None:
        pos = ""
        if line is not None:
            pos = f" (line {line})"
        elif seq is not None:
            pos = f" (event seq {seq})"
        super().__init__(code, message + pos)
        self.line = line
        self.seq = seq


class MutationError(DynCfiError):
    """Adversarial-trace mutation cannot be applied (code ``mutation-out-of-range``)."""


class MetricError(DynCfiError):
    """DAIR metric misuse.

    Codes: ``invalid-universe``, ``no-transfers``, ``empty-process``.
    """
