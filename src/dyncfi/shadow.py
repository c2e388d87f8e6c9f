"""Trusted return-address stack.

Calls push the return address here as well as on the (untrusted)
application stack; returns are validated against the top frame, which is
consumed whether or not the claimed address matches (the shadow value is
the authoritative continuation).  Exception handling unwinds by removing
frames until one matches the landing return address; frames are only
ever removed, never fabricated.
"""

from __future__ import annotations

from .errors import ShadowStackError
from .policy import ALLOW, DENY, RULE_RETURN_SHADOW, Verdict

DEFAULT_MAX_DEPTH = 1_000_000


class ShadowStack:
    """LIFO of return addresses with a configurable depth bound."""

    def __init__(self, max_depth: int = DEFAULT_MAX_DEPTH) -> None:
        self._frames: list[int] = []
        self.max_depth = max_depth

    def __len__(self) -> int:
        return len(self._frames)

    def push_call(self, call_site: int, return_address: int) -> None:
        """Record a call; raises ``depth-exceeded`` past the bound."""
        if len(self._frames) >= self.max_depth:
            raise ShadowStackError(
                "depth-exceeded",
                f"shadow stack exceeded {self.max_depth} frames "
                f"(call at {hex(call_site)})")
        self._frames.append(return_address)

    def pop_and_check(self, claimed: int) -> Verdict:
        """Validate the claimed return address against the top frame.

        The frame is consumed either way: the shadow value, not the
        claimed one, is the authoritative continuation, so on a mismatch
        execution is deemed to proceed at the shadow address (the deny
        verdict carries both).  Consuming the frame keeps one corrupted
        return from cascading into spurious denials of later, honest
        returns.  An empty stack (underflow) is a deny with nothing to
        consume.
        """
        if not self._frames:
            return Verdict(DENY, RULE_RETURN_SHADOW,
                           f"return to {hex(claimed)} with empty shadow stack "
                           f"(underflow)", 1)
        top = self._frames.pop()
        if top != claimed:
            return Verdict(DENY, RULE_RETURN_SHADOW,
                           f"claimed {hex(claimed)} != shadow {hex(top)}", 1)
        return Verdict(ALLOW, RULE_RETURN_SHADOW,
                       f"return to {hex(claimed)} matches shadow", 1)

    def unwind_to(self, target_return: int) -> bool:
        """Drop frames above the one whose return address matches.

        Returns False and leaves the stack unchanged when no frame
        matches; the replay engine escalates that to a violation.
        """
        for i in range(len(self._frames) - 1, -1, -1):
            if self._frames[i] == target_return:
                del self._frames[i + 1:]
                return True
        return False
