"""Control-transfer policy: allow/deny decisions per transfer kind.

Decision rules, applied over an immutable :class:`ProcessImage` snapshot:

    call   -- the target must be a function defined in the source module
              (known precisely for non-stripped modules, at
              section/export granularity otherwise), an exported function
              the source module imports, or a heuristically admitted
              callback address.
    jump   -- the target must stay inside the source's enclosing function
              (or granule) at a valid instruction, or be an allowed call
              target (tail call).
    return -- the claimed address must match the trusted shadow stack.

Every transfer must land on a known-valid instruction start; failures of
that requirement are reported under rule ``valid-instruction`` regardless
of transfer kind.  Deny verdicts name the violated rule: ``call-import``
for denied inter-module calls, ``call-local`` for denied intra-module
calls, ``jump-intra-function`` / ``jump-tail-call`` likewise for jumps.

``target_set_size`` on a verdict counts the distinct addresses the policy
would have accepted for that transfer, feeding the reduction metric.
"""

from __future__ import annotations

from dataclasses import dataclass

from .elf import PATTERN_RELATIVE_RELOC
from .process import CallbackFinding, LoadedModule, ProcessImage

ALLOW = "allow"
DENY = "deny"

RULE_CALL_IMPORT = "call-import"
RULE_CALL_LOCAL = "call-local"
RULE_JUMP_INTRA = "jump-intra-function"
RULE_JUMP_TAIL_CALL = "jump-tail-call"
RULE_RETURN_SHADOW = "return-shadow-match"
RULE_CALLBACK = "callback-admitted"
RULE_PLT_DIRECT = "plt-direct"
RULE_VALID_INSTRUCTION = "valid-instruction"


@dataclass(frozen=True, slots=True)
class Verdict:
    decision: str
    rule: str
    reason: str
    target_set_size: int

    @property
    def allowed(self) -> bool:
        return self.decision == ALLOW


def check_call(p: ProcessImage, src_mod: LoadedModule, dst: int) -> Verdict:
    """Validate a call from ``src_mod``, the module mapping its source."""
    targets = p.call_target_set(src_mod.module_id)
    size = len(targets)
    dst_mod = p.exec_module_at(dst)

    if dst_mod is None or not dst_mod.is_instruction(dst):
        where = "outside loaded modules" if dst_mod is None else "mid-instruction"
        return Verdict(DENY, RULE_VALID_INSTRUCTION,
                       f"call target {hex(dst)} is {where}", size)

    if dst in targets:
        rule, reason = _allow_rule(p, src_mod, dst_mod, dst)
        return Verdict(ALLOW, rule, reason, size)

    if dst_mod.module_id == src_mod.module_id:
        return Verdict(DENY, RULE_CALL_LOCAL,
                       f"{hex(dst)} is not a known function of "
                       f"{src_mod.module_id}", size)
    return Verdict(DENY, RULE_CALL_IMPORT,
                   f"{src_mod.module_id} does not import a function at "
                   f"{hex(dst)} from {dst_mod.module_id}", size)


def _allow_rule(p: ProcessImage, src_mod: LoadedModule,
                dst_mod: LoadedModule, dst: int) -> tuple[str, str]:
    """Name the rule admitting dst; local beats import beats callback."""
    table, scope = p.table, src_mod.module_id
    if dst in table.local[scope] and dst_mod.module_id == scope:
        how = ("section-granularity target" if src_mod.module.stripped
               else "function defined in module")
        return RULE_CALL_LOCAL, f"{how} at {hex(dst)}"
    if dst in table.imported[scope]:
        return RULE_CALL_IMPORT, (
            f"imported export of {dst_mod.module_id} at {hex(dst)}")
    if dst in table.callbacks:
        return RULE_CALLBACK, f"callback address {hex(dst)}"
    return RULE_CALL_IMPORT, f"allowlisted target {hex(dst)}"


def check_jump(p: ProcessImage, src_mod: LoadedModule, src: int,
               dst: int) -> Verdict:
    """Validate a jump from ``src`` in ``src_mod`` (intra-function or tail
    call)."""
    extent = p.function_extent(src_mod, src)
    call_targets = p.call_target_set(src_mod.module_id)
    size = len(call_targets)
    if extent is not None:
        size += p.extent_non_targets(src_mod, extent)

    dst_mod = p.exec_module_at(dst)
    dst_valid = dst_mod is not None and dst_mod.is_instruction(dst)

    if extent is not None and extent[0] <= dst < extent[1] and dst_valid:
        return Verdict(ALLOW, RULE_JUMP_INTRA,
                       f"{hex(dst)} within function "
                       f"[{hex(extent[0])},{hex(extent[1])})", size)
    if dst_valid and dst in call_targets:
        return Verdict(ALLOW, RULE_JUMP_TAIL_CALL,
                       f"tail call to allowed target {hex(dst)}", size)

    if not dst_valid:
        where = "outside loaded modules" if dst_mod is None else "mid-instruction"
        return Verdict(DENY, RULE_VALID_INSTRUCTION,
                       f"jump target {hex(dst)} is {where}", size)
    if dst_mod.module_id == src_mod.module_id:
        return Verdict(DENY, RULE_JUMP_INTRA,
                       f"{hex(dst)} escapes the enclosing function and is "
                       f"not a call target", size)
    return Verdict(DENY, RULE_JUMP_TAIL_CALL,
                   f"{hex(dst)} in {dst_mod.module_id} is not an allowed "
                   f"tail-call target", size)


# ---------------------------------------------------------------------------
# Callback detection heuristics
# ---------------------------------------------------------------------------

def scan_callbacks(p: ProcessImage, lm: LoadedModule) -> list[CallbackFinding]:
    """Admit one loaded module's function-pointer candidates.

    The byte patterns, relocations and ``.data`` words are found once per
    image: :attr:`ModuleImage.callback_candidates` holds them as
    ``(value, base-relative?, pattern)`` in scan order.  Per load, each
    base-relative value is rebased (``lea-ebx-relative`` as a plain sum,
    ``relative-relocation`` modulo 2^32), so a load costs O(candidates),
    not O(bytes).

    A candidate is admitted only when the resolved value is a known-valid
    instruction start in some loaded module, so every finding is sound by
    construction.  Findings are distinct per (address, pattern), in the
    order of their first candidate.
    """
    findings: dict[tuple[int, str], CallbackFinding] = {}
    base, source = lm.base, lm.module_id
    for value, relative, pattern in lm.module.callback_candidates:
        if relative:
            value += base
            if pattern == PATTERN_RELATIVE_RELOC:
                # 32-bit wraparound: the stored addend is an unsigned word.
                value &= 0xFFFFFFFF
        key = (value, pattern)
        if key not in findings and p.is_instruction(value):
            findings[key] = CallbackFinding(address=value, pattern=pattern,
                                            source_module=source)
    return list(findings.values())
