"""Dynamic process view: loaded modules and the transfer lookup table.

The :class:`ProcessImage` tracks which modules are mapped where, resolves
imports against exporters in load order, and maintains the
:class:`TransferLookupTable` incrementally on load/unload.  The table holds
the absolute call targets each source module M may reach, by grant kind:

    - ``local[M]``: functions defined in M: every known function start if
      M is not stripped; with a stripped module only instruction-level
      knowledge remains, so any known-valid instruction in M's executable
      sections is admitted (verification coarsens to section/export
      granularity),
    - ``imported[M]``: exported functions of any loaded module whose name
      M imports,
    - ``callbacks``: heuristically admitted callback addresses, valid from
      every module (scope ``"*"`` in snapshots).

Configured allowlist entries (extra (module, symbol) grants) are added on
top when a module's call-target set is computed.

Mutations are serialized by the caller; every mutation bumps ``epoch``,
which clears the per-epoch memos (call-target sets, extent counts) and lets
downstream caches invalidate.  Module views (ranges, sorted function
intervals, granule boundaries) are computed once per image, not per event.

Address lookups go through an exec-range index: the executable ranges of
every loaded module, sorted by start, rebuilt on each load and unload.
Module spans never overlap and each span covers its module's executable
ranges, so the ranges are disjoint and :meth:`ProcessImage.exec_module_at`
is one bisect over their starts.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property

from .elf import ELFCLASS32, InstructionMap, ModuleImage
from .errors import ProcessError, ResolutionError

PAGE_SIZE = 4096
GLOBAL_SCOPE = "*"

#: ``load_module`` maps ELF32 images only, so every address is 32-bit.
ADDRESS_LIMIT = 1 << 32


@dataclass(frozen=True)
class LoadedModule:
    """One module mapped at an absolute base address."""

    module: ModuleImage
    base: int
    imap: InstructionMap
    module_id: str

    @property
    def path(self) -> str:
        return self.module.path

    @cached_property
    def span(self) -> tuple[int, int]:
        """Absolute [start, end) covering the mapped sections.

        Non-executable sections at virtual offset 0 are unmapped metadata
        (symbol and string tables) and do not contribute to the footprint;
        executable sections always do, wherever they sit.
        """
        sections = [s for s in self.module.sections
                    if s.size > 0 and (s.virtual_offset > 0 or s.executable)]
        if not sections:
            return (self.base, self.base)
        lo = min(s.virtual_offset for s in sections)
        hi = max(s.end for s in sections)
        return (self.base + lo, self.base + hi)

    @cached_property
    def exec_ranges(self) -> tuple[tuple[int, int], ...]:
        return tuple((self.base + lo, self.base + hi)
                     for lo, hi in self.module.executable_ranges)

    def is_instruction(self, addr: int) -> bool:
        return self.imap.contains(addr - self.base)

    def instructions_in(self, lo: int, hi: int) -> list[int]:
        """Absolute valid-instruction addresses within [lo, hi)."""
        return [self.base + off
                for off in self.imap.offsets_in(lo - self.base, hi - self.base)]


@dataclass(frozen=True, slots=True)
class CallbackFinding:
    """A code pointer admitted by a scan heuristic."""

    address: int
    pattern: str
    source_module: str


class TransferLookupTable:
    """Call grants per source scope, one container per grant kind.

    ``local`` and ``imported`` map a loaded-module id to the absolute
    targets it may call; ``callbacks`` holds the heuristically admitted
    targets, callable from every scope.
    """

    def __init__(self) -> None:
        self.local: dict[str, set[int]] = {}
        self.imported: dict[str, set[int]] = {}
        self.callbacks: set[int] = set()

    def snapshot(self) -> dict[int, dict[str, tuple[str, ...]]]:
        """Canonical, comparable copy: target -> {scope -> grant kinds}."""
        out: dict[int, dict[str, tuple[str, ...]]] = {}
        for kind, by_scope in (("imported", self.imported), ("local", self.local),
                               ("callbacks", {GLOBAL_SCOPE: self.callbacks})):
            for scope, targets in by_scope.items():
                for t in targets:
                    kinds = out.setdefault(t, {})
                    kinds[scope] = kinds.get(scope, ()) + (kind,)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransferLookupTable):
            return NotImplemented
        return self.snapshot() == other.snapshot()

    def __len__(self) -> int:
        return len(self.callbacks.union(*self.local.values(),
                                        *self.imported.values()))


class ProcessImage:
    """Mutable view of the running process; single writer, epoch-versioned."""

    def __init__(self, allowlist: frozenset[tuple[str, str]] = frozenset()) -> None:
        self.loaded: dict[str, LoadedModule] = {}  # insertion order = load order
        self.table = TransferLookupTable()
        self.callback_findings: list[CallbackFinding] = []
        self.plt_resolutions: dict[tuple[str, int], int] = {}
        self.epoch = 0
        self.allowlist = allowlist
        self._exec_starts: tuple[int, ...] = ()
        self._exec_owners: tuple[tuple[int, LoadedModule], ...] = ()
        self._target_cache: dict[str, frozenset[int]] = {}
        self._extent_cache: dict[tuple[str, tuple[int, int]], int] = {}

    # -- queries ---------------------------------------------------------

    def exec_module_at(self, addr: int) -> LoadedModule | None:
        i = bisect_right(self._exec_starts, addr) - 1
        if i >= 0:
            hi, lm = self._exec_owners[i]
            if addr < hi:
                return lm
        return None

    def is_instruction(self, addr: int) -> bool:
        lm = self.exec_module_at(addr)
        return lm is not None and lm.is_instruction(addr)

    def by_path(self, path: str, base: int | None = None) -> LoadedModule | None:
        hits = [lm for lm in self.loaded.values() if lm.path == path
                and (base is None or lm.base == base)]
        return hits[-1] if hits else None

    def call_target_set(self, module_id: str) -> frozenset[int]:
        """All addresses a loaded module may call (table plus allowlist)."""
        cached = self._target_cache.get(module_id)
        if cached is None:
            table = self.table
            cached = self._target_cache[module_id] = frozenset().union(
                table.local[module_id], table.imported[module_id],
                table.callbacks, self._allowlist_targets(module_id))
        return cached

    def extent_non_targets(self, lm: LoadedModule,
                           extent: tuple[int, int]) -> int:
        """Valid instructions of ``lm`` in ``extent`` that ``lm`` may not
        call: what a jump from the extent may reach beyond its call
        targets.  Memoized per epoch, so a jump costs no walk of the
        extent once the extent has been counted.  A stripped module may
        call every one of its instructions, so its count is always 0."""
        if lm.module.stripped:
            return 0
        key = (lm.module_id, extent)
        count = self._extent_cache.get(key)
        if count is None:
            targets = self.call_target_set(lm.module_id)
            count = self._extent_cache[key] = sum(
                1 for a in lm.instructions_in(*extent) if a not in targets)
        return count

    def _allowlist_targets(self, module_id: str) -> set[int]:
        if not self.allowlist:
            return set()
        lm = self.loaded[module_id]
        basename = lm.path.rsplit("/", 1)[-1]
        wanted = {sym for key, sym in self.allowlist if key in (lm.path, basename)}
        out: set[int] = set()
        for exporter in self.loaded.values():
            for rec in exporter.module.export_records:
                if rec.name in wanted and rec.kind == "function":
                    out.add(exporter.base + rec.value)
        return out

    def resolve_import(self, name: str) -> LoadedModule | None:
        """First-loaded exporter of ``name`` (load-order resolution)."""
        for lm in self.loaded.values():
            if name in lm.module.export_values:
                return lm
        return None

    def import_resolutions(self, module_id: str) -> dict[str, str | None]:
        lm = self.loaded[module_id]
        out: dict[str, str | None] = {}
        for name in lm.module.imports:
            exporter = self.resolve_import(name)
            out[name] = exporter.module_id if exporter else None
        return out

    def function_extent(self, lm: LoadedModule,
                        addr: int) -> tuple[int, int] | None:
        """Interval of the function enclosing ``addr`` in ``lm``, or the
        section granule carved by known symbol starts when precise
        intervals are unavailable; ``None`` outside executable sections.

        Non-stripped modules use symbol value+size intervals, falling back
        to granules bounded by all known function starts.  Stripped
        modules only know exported starts, so the granule degrades to
        section/exported-symbol granularity.
        """
        off = addr - lm.base
        mod = lm.module
        if not mod.stripped:
            # Innermost = the largest (start, end) containing off: walk left
            # from the last start <= off while an interval reaches past off.
            ivs = mod.function_intervals
            i = bisect_left(ivs, (off + 1,))
            while i > 0 and ivs[i - 1][2] > off:
                i -= 1
                if ivs[i][1] > off:
                    return (lm.base + ivs[i][0], lm.base + ivs[i][1])
        ranges = mod.executable_ranges
        i = bisect_left(ranges, (off + 1,))
        if not i or ranges[i - 1][1] <= off:
            return None
        sec_lo, sec_hi = ranges[i - 1]
        bounds = mod.granule_boundaries
        i = bisect_right(bounds, off)
        lo = max(bounds[i - 1], sec_lo) if i else sec_lo
        hi = min(bounds[i], sec_hi) if i < len(bounds) else sec_hi
        return (lm.base + lo, lm.base + hi)

    # -- mutations ---------------------------------------------------------

    def load_module(self, image: ModuleImage, base: int,
                    imap: InstructionMap) -> LoadedModule:
        """Map ``image`` at ``base`` and extend the lookup table.

        Raises:
            ProcessError: an image that is not ELF32, a misaligned or
                overlapping base, or a base that puts the module past the
                32-bit address space.
        """
        if image.elf_class != ELFCLASS32:
            raise ProcessError(
                "unsupported-class",
                f"{image.path}: not an ELF32 image; replay maps 32-bit "
                "modules only")
        if base % PAGE_SIZE:
            raise ProcessError("misaligned-base",
                               f"{image.path}: base {hex(base)} not page-aligned")
        module_id = f"{image.path}@{base:#x}"
        if module_id in self.loaded:
            raise ProcessError("overlapping-base",
                               f"{image.path} already loaded at {hex(base)}")
        lm = LoadedModule(module=image, base=base, imap=imap, module_id=module_id)
        lo, hi = lm.span
        if hi > ADDRESS_LIMIT:
            raise ProcessError(
                "base-out-of-range",
                f"{image.path} at {hex(base)} ends at {hex(hi)}, past the "
                f"32-bit address space")
        for other in self.loaded.values():
            o_lo, o_hi = other.span
            if lo < o_hi and o_lo < hi:
                raise ProcessError(
                    "overlapping-base",
                    f"{image.path} at {hex(base)} overlaps {other.module_id}")
        self.loaded[module_id] = lm
        self._index_exec_ranges()
        self._extend_table_for(lm)
        self._bump_epoch()
        return lm

    def _bump_epoch(self) -> None:
        """Start a new epoch: every per-epoch memo is stale."""
        self.epoch += 1
        self._target_cache.clear()
        self._extent_cache.clear()

    def _index_exec_ranges(self) -> None:
        ranges = sorted(((lo, hi, lm) for lm in self.loaded.values()
                         for lo, hi in lm.exec_ranges), key=lambda r: r[0])
        self._exec_starts = tuple(lo for lo, _hi, _lm in ranges)
        self._exec_owners = tuple((hi, lm) for _lo, hi, lm in ranges)

    def _extend_table_for(self, lm: LoadedModule) -> None:
        mod, table = lm.module, self.table
        # Functions defined in the module, callable from the module itself.
        offsets = lm.imap.offsets if mod.stripped else mod.exec_function_starts
        table.local[lm.module_id] = {lm.base + off for off in offsets}
        # New module's imports, resolved against every loaded exporter.
        table.imported[lm.module_id] = {
            other.base + off for other in self.loaded.values()
            for name in other.module.function_exports.keys() & mod.imported_names
            for off in other.module.function_exports[name]}
        # New module's exports, callable from every importer already loaded.
        exports = mod.function_exports
        for other in self.loaded.values():
            table.imported[other.module_id].update(
                lm.base + off
                for name in exports.keys() & other.module.imported_names
                for off in exports[name])

    def unload_module(self, module_id: str) -> None:
        """Remove a module, revoking every binding to or from it.

        Raises:
            ProcessError: ``unknown-module`` if not loaded.
        """
        lm = self.loaded.get(module_id)
        if lm is None:
            raise ProcessError("unknown-module", f"not loaded: {module_id}")
        lo, hi = lm.span
        del self.loaded[module_id]
        self._index_exec_ranges()
        table = self.table
        table.local.pop(module_id)
        table.imported.pop(module_id)
        for targets in table.imported.values():
            targets.difference_update([t for t in targets if lo <= t < hi])
        self.callback_findings = [
            f for f in self.callback_findings
            if f.source_module != module_id and not (lo <= f.address < hi)]
        # An address stays a callback while any surviving finding names it.
        table.callbacks = {f.address for f in self.callback_findings}
        self.plt_resolutions = {
            (mid, plt): tgt for (mid, plt), tgt in self.plt_resolutions.items()
            if mid != module_id and not (lo <= tgt < hi)}
        self._bump_epoch()

    def admit_callbacks(self, findings: list[CallbackFinding]) -> int:
        """Add a freshly loaded module's distinct scan findings to the
        callback set; returns how many were added.

        No live finding can repeat one: unloading a module drops every
        finding it sourced or that lies in its span, so nothing is
        deduplicated.  Bumps the epoch only when findings were added.
        """
        self.callback_findings.extend(findings)
        self.table.callbacks.update(f.address for f in findings)
        if findings:
            self._bump_epoch()
        return len(findings)

    def resolve_plt(self, lm: LoadedModule, plt_address: int) -> int:
        """Resolve a PLT entry of ``lm`` to the first-loaded exporter's
        address.

        The resolved pair is recorded in ``plt_resolutions`` for the
        process snapshot.

        Raises:
            ProcessError: ``unknown-module`` when ``plt_address`` is not a
                PLT entry of ``lm``.
            ResolutionError: ``unresolved-symbol`` when no loaded module
                exports the name.
        """
        symbol = lm.module.plt_symbols.get(plt_address - lm.base)
        if symbol is None:
            raise ProcessError(
                "unknown-module",
                f"{lm.module_id}: {hex(plt_address)} is not a PLT entry")
        exporter = self.resolve_import(symbol)
        if exporter is None:
            raise ResolutionError(
                "unresolved-symbol",
                f"{lm.module_id}: no loaded exporter for {symbol!r}")
        target = exporter.base + exporter.module.export_value(symbol)
        self.plt_resolutions[(lm.module_id, plt_address)] = target
        return target

    def rebuild_table(self) -> TransferLookupTable:
        """From-scratch table over the current loaded set and callback set.

        Incremental maintenance must be indistinguishable from this.
        """
        fresh = TransferLookupTable()
        for lm in self.loaded.values():
            mod = lm.module
            if not mod.stripped:
                fresh.local[lm.module_id] = {
                    lm.base + off for off in mod.defined_function_starts
                    if mod.in_executable_range(off)}
            else:
                fresh.local[lm.module_id] = {lm.base + off
                                             for off in lm.imap.offsets}
        for importer in self.loaded.values():
            names = set(importer.module.imports)
            names.update(e.symbol for e in importer.module.plt_entries)
            fresh.imported[importer.module_id] = {
                exporter.base + r.value
                for exporter in self.loaded.values()
                for r in exporter.module.export_records
                if r.kind == "function" and r.name in names
                and exporter.module.in_executable_range(r.value)}
        fresh.callbacks = {f.address for f in self.callback_findings}
        return fresh

    def snapshot_dict(self) -> dict:
        """Diagnostic dump of the current image."""
        return {
            "epoch": self.epoch,
            "modules": [
                {"module_id": lm.module_id, "path": lm.path,
                 "base": hex(lm.base), "stripped": lm.module.stripped,
                 "imports": self.import_resolutions(lm.module_id)}
                for lm in self.loaded.values()
            ],
            "callback_set": sorted(hex(a) for a in self.table.callbacks),
            "plt_resolutions": {
                f"{mid}+{hex(plt)}": hex(tgt)
                for (mid, plt), tgt in sorted(self.plt_resolutions.items())},
            "table_targets": len(self.table),
        }
