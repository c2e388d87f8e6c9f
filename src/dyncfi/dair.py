"""Dynamic average indirect-target reduction over a replay.

For every executed indirect transfer j the policy admits a target set of
size ``|T_j|`` out of a universe of ``S_j`` possible targets; the running
metric at time t is the mean of ``1 - |T_j|/S_j`` over the transfers seen
so far.  The universe is sampled at each transfer's epoch since modules
may load and unload mid-trace.  Only the per-transfer records are stored;
the running series and the per-kind values are derived from them on
demand.
"""

from __future__ import annotations

import io
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import MetricError
from .process import ProcessImage

KIND_INDIRECT_CALL = "indirect-call"
KIND_INDIRECT_JUMP = "indirect-jump"
KIND_RETURN = "return"
TRANSFER_KINDS = (KIND_INDIRECT_CALL, KIND_INDIRECT_JUMP, KIND_RETURN)

UNIVERSE_EXEC_BYTES = "exec-bytes"
UNIVERSE_VALID_INSTRUCTIONS = "valid-instructions"


@dataclass(frozen=True, slots=True)
class TransferRecord:
    kind: str
    allowed: int      # |T_j|
    universe: int     # S at this transfer's epoch
    seq: int


class DairTracker:
    """Stores one record per indirect transfer; every metric derives from them."""

    def __init__(self) -> None:
        self.records: list[TransferRecord] = []

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
        self.records.append(TransferRecord(kind, allowed, universe, seq))

    def _running(self) -> Iterator[tuple[int, float, dict[str, float],
                                         dict[str, int]]]:
        """After each record: its seq, the running total, and the per-kind
        sums and counts (two dicts, updated in place).

        Terms are added in record order, so each value has the exact bits
        of a left-to-right float sum over the prefix.
        """
        acc = 0.0
        kind_sum = dict.fromkeys(TRANSFER_KINDS, 0.0)
        kind_n = dict.fromkeys(TRANSFER_KINDS, 0)
        for n, rec in enumerate(self.records, start=1):
            term = 1.0 - rec.allowed / rec.universe
            acc += term
            kind_sum[rec.kind] += term
            kind_n[rec.kind] += 1
            yield rec.seq, acc / n, kind_sum, kind_n

    def finalize(self) -> dict:
        """Summary with percentage formatting; raises when nothing ran."""
        if not self.records:
            raise MetricError("no-transfers", "no indirect transfers recorded")
        series = []
        for seq, total, kind_sum, kind_n in self._running():
            series.append([seq, total])
        return {
            "n": self.n,
            "total": total,
            "total_pct": _pct(total),
            "per_kind": {
                k: {"n": kind_n[k], "value": v, "pct": _pct(v)}
                for k, v in _means(kind_sum, kind_n).items() if kind_n[k]
            },
            "series": series,
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
        for seq, total, kind_sum, kind_n in self._running():
            cells = [str(seq), f"{total:.12g}"]
            for v in _means(kind_sum, kind_n).values():
                cells.append("" if v is None else f"{v:.12g}")
            buf.write(",".join(cells) + "\n")
        return buf.getvalue()


def _means(kind_sum: dict[str, float],
           kind_n: dict[str, int]) -> dict[str, float | None]:
    return {k: kind_sum[k] / kind_n[k] if kind_n[k] else None
            for k in TRANSFER_KINDS}


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
