"""Dynamic average indirect-target reduction over a replay.

For every executed indirect transfer j the policy admits a target set of
size ``|T_j|`` out of a universe of ``S_j`` possible targets; the running
metric at time t is the mean of ``1 - |T_j|/S_j`` over the transfers seen
so far.  The universe is sampled at each transfer's epoch since modules
may load and unload mid-trace.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

from .errors import MetricError
from .process import ProcessImage

KIND_INDIRECT_CALL = "indirect-call"
KIND_INDIRECT_JUMP = "indirect-jump"
KIND_RETURN = "return"
TRANSFER_KINDS = (KIND_INDIRECT_CALL, KIND_INDIRECT_JUMP, KIND_RETURN)

UNIVERSE_EXEC_BYTES = "exec-bytes"
UNIVERSE_VALID_INSTRUCTIONS = "valid-instructions"


@dataclass(frozen=True)
class TransferRecord:
    index: int
    kind: str
    allowed: int      # |T_j|
    universe: int     # S at this transfer's epoch
    seq: int


class DairTracker:
    """Accumulates transfer records and the running metric series."""

    def __init__(self) -> None:
        self.records: list[TransferRecord] = []
        self._sum = 0.0
        self._kind_sum: dict[str, float] = {k: 0.0 for k in TRANSFER_KINDS}
        self._kind_n: dict[str, int] = {k: 0 for k in TRANSFER_KINDS}
        # (seq, running total, {kind: running per-kind value or None})
        self.series: list[tuple[int, float, dict[str, float | None]]] = []

    @property
    def n(self) -> int:
        return len(self.records)

    def record_transfer(self, kind: str, allowed: int, universe: int,
                        seq: int) -> None:
        if universe < 1:
            raise MetricError("invalid-universe",
                              f"universe {universe} < 1 at seq {seq}")
        if allowed < 0:
            raise MetricError("invalid-universe",
                              f"negative target-set size at seq {seq}")
        if kind not in TRANSFER_KINDS:
            raise MetricError("invalid-universe",
                              f"unknown transfer kind {kind!r}")
        rec = TransferRecord(index=len(self.records) + 1, kind=kind,
                             allowed=allowed, universe=universe, seq=seq)
        self.records.append(rec)
        term = 1.0 - allowed / universe
        self._sum += term
        self._kind_sum[kind] += term
        self._kind_n[kind] += 1
        self.series.append((seq, self.total(), self.per_kind()))

    def total(self) -> float:
        if not self.records:
            raise MetricError("no-transfers", "no indirect transfers recorded")
        return self._sum / len(self.records)

    def per_kind(self) -> dict[str, float | None]:
        return {k: (self._kind_sum[k] / self._kind_n[k] if self._kind_n[k] else None)
                for k in TRANSFER_KINDS}

    def kind_counts(self) -> dict[str, int]:
        return dict(self._kind_n)

    def finalize(self) -> dict:
        """Summary with percentage formatting; raises when nothing ran."""
        if not self.records:
            raise MetricError("no-transfers", "no indirect transfers recorded")
        total = self.total()
        per_kind = self.per_kind()
        return {
            "n": self.n,
            "total": total,
            "total_pct": _pct(total),
            "per_kind": {
                k: {"n": self._kind_n[k], "value": v,
                    "pct": _pct(v) if v is not None else None}
                for k, v in per_kind.items() if self._kind_n[k]
            },
            "series": [[seq, total_] for seq, total_, _kinds in self.series],
        }

    def to_report_dict(self) -> dict:
        """Report section; total is null when no transfers ran."""
        if not self.records:
            return {"n": 0, "total": None, "per_kind": {}, "series": []}
        out = self.finalize()
        return {"n": out["n"], "total": out["total"],
                "per_kind": {k: v["value"] for k, v in out["per_kind"].items()},
                "series": out["series"]}

    def csv_series(self) -> str:
        """CSV of the running series: seq,dair_total,dair_call,dair_jump,dair_ret."""
        buf = io.StringIO()
        buf.write("seq,dair_total,dair_call,dair_jump,dair_ret\n")
        for seq, total, kinds in self.series:
            cells = [str(seq), f"{total:.12g}"]
            for kind in TRANSFER_KINDS:
                v = kinds[kind]
                cells.append("" if v is None else f"{v:.12g}")
            buf.write(",".join(cells) + "\n")
        return buf.getvalue()


def _pct(value: float) -> str:
    return f"{value * 100:.2f}%"


def compute_universe(p: ProcessImage,
                     mode: str = UNIVERSE_EXEC_BYTES) -> int:
    """Number of targets an unprotected indirect transfer could reach.

    ``exec-bytes`` counts every byte of every loaded executable range
    (the most conservative universe); ``valid-instructions`` counts known
    instruction starts instead.

    Raises:
        MetricError: ``empty-process`` with no loaded modules.
    """
    if not p.loaded:
        raise MetricError("empty-process", "no modules loaded")
    if mode == UNIVERSE_EXEC_BYTES:
        return sum(hi - lo for lm in p.loaded.values()
                   for lo, hi in lm.exec_ranges)
    if mode == UNIVERSE_VALID_INSTRUCTIONS:
        return sum(len(lm.imap.offsets) for lm in p.loaded.values())
    raise MetricError("invalid-universe", f"unknown universe mode {mode!r}")
