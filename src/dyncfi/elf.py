"""ELF shared-object model: parsing, fixture building, instruction maps.

Parses ELF32 and ELF64 little-endian shared objects into a semantic
:class:`ModuleImage` using only :mod:`struct`, choosing the layout by the
header's ``EI_CLASS`` byte; replay maps ELF32 images only (see
:meth:`dyncfi.process.ProcessImage.load_module`).  The inverse direction,
:func:`build_fixture`, emits a minimal legal ELF32 image from a
:class:`FixtureSpec` so tests and experiments can fabricate module sets
with exact symbol/import/PLT layouts.

The parser reads:
    - ELF header (magic, class, endianness)
    - section header table and section names
    - .dynsym/.dynstr (exported and imported symbols)
    - .symtab/.strtab when present (local symbol detail)
    - .rel.* relocation entries (R_386_RELATIVE, R_386_JMP_SLOT)
    - .plt stubs, matched to their GOT slots and symbol names
"""

from __future__ import annotations

import hashlib
import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate

from .errors import ElfFormatError, FixtureError, SidecarError

# ---------------------------------------------------------------------------
# ELF constants (32-bit x86 subset)
# ---------------------------------------------------------------------------

ELF_MAGIC = b"\x7fELF"

ELFCLASS32 = 1
ELFCLASS64 = 2
ELFDATA2LSB = 1

ET_DYN = 3
EM_386 = 3
EV_CURRENT = 1

SHT_NULL = 0
SHT_PROGBITS = 1
SHT_SYMTAB = 2
SHT_STRTAB = 3
SHT_RELA = 4
SHT_NOBITS = 8
SHT_REL = 9
SHT_DYNSYM = 11

SHF_WRITE = 0x1
SHF_ALLOC = 0x2
SHF_EXECINSTR = 0x4

STB_LOCAL = 0
STB_GLOBAL = 1
STB_WEAK = 2

STT_NOTYPE = 0
STT_OBJECT = 1
STT_FUNC = 2
STT_SECTION = 3
STT_FILE = 4

SHN_UNDEF = 0
SHN_ABS = 0xFFF1
SHN_COMMON = 0xFFF2
SHN_LORESERVE = 0xFF00

R_386_JMP_SLOT = 7
R_386_RELATIVE = 8

# ELF32 record sizes
_EHDR32_SIZE = 52
_SHDR32_SIZE = 40
_SYM32_SIZE = 16
_REL32_SIZE = 8

_BIND_NAMES = {STB_LOCAL: "local", STB_GLOBAL: "global", STB_WEAK: "weak"}
_KIND_NAMES = {STT_FUNC: "function", STT_OBJECT: "object"}

PLT_ENTRY_SIZE = 16
GOT_RESERVED_SLOTS = 3

# Function-pointer creation patterns the callback heuristics look for.
PATTERN_PUSH_IMM32 = "push-imm32"
PATTERN_MOV_IMM32 = "mov-imm32-to-stack-slot"
PATTERN_LEA_EBX = "lea-ebx-relative"
PATTERN_RELATIVE_RELOC = "relative-relocation"
PATTERN_DATA_SCAN = "data-scan"


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Section:
    """One section of a module: placement, permissions, raw bytes."""

    name: str
    file_offset: int
    virtual_offset: int
    size: int
    executable: bool
    writable: bool
    data: bytes = b""

    @property
    def end(self) -> int:
        return self.virtual_offset + self.size

    def contains(self, offset: int) -> bool:
        return self.virtual_offset <= offset < self.end


@dataclass(frozen=True, slots=True)
class SymbolRecord:
    """A defined symbol: module-relative value, size and classification.

    ``origin`` records which symbol table supplied the record; exported
    symbols are the non-local ones of the dynamic table (and may be
    duplicated in the full table of a non-stripped module).
    """

    name: str
    value: int
    size: int
    kind: str = "function"       # function | object | other
    binding: str = "global"      # global | local | weak
    origin: str = "dynsym"       # dynsym | symtab


@dataclass(frozen=True)
class PltEntry:
    """A PLT stub at ``address`` (module-relative) calling ``symbol``."""

    address: int
    symbol: str


@dataclass(frozen=True)
class RelocationRecord:
    """A dynamic relocation: ``kind`` is ``relative`` or ``jmp-slot``.

    For REL-format entries the addend lives at the relocated location; the
    parser reads it back so the record is self-contained.
    """

    offset: int
    kind: str
    addend: int = 0
    symbol: str | None = None


@dataclass(frozen=True)
class ModuleImage:
    """Parsed, immutable view of one shared object."""

    module_id: str
    path: str
    sections: tuple[Section, ...]
    symbols: tuple[SymbolRecord, ...]
    imports: tuple[str, ...]
    plt_entries: tuple[PltEntry, ...]
    relocations: tuple[RelocationRecord, ...]
    stripped: bool
    elf_class: int = ELFCLASS32

    # -- derived views (pure, so each is computed once per image) --------

    @cached_property
    def executable_sections(self) -> tuple[Section, ...]:
        return tuple(s for s in self.sections if s.executable and s.size > 0)

    @cached_property
    def executable_ranges(self) -> tuple[tuple[int, int], ...]:
        """Sorted, disjoint [start, end) module-relative executable ranges."""
        return tuple(sorted((s.virtual_offset, s.end)
                            for s in self.executable_sections))

    def section(self, name: str) -> Section | None:
        for s in self.sections:
            if s.name == name:
                return s
        return None

    def in_executable_range(self, offset: int) -> bool:
        return any(lo <= offset < hi for lo, hi in self.executable_ranges)

    @cached_property
    def export_records(self) -> tuple[SymbolRecord, ...]:
        return tuple(s for s in self.symbols if s.origin == "dynsym"
                     and s.binding != "local")

    @cached_property
    def export_values(self) -> dict[str, int]:
        """Exported name -> value of its first export record, in table order."""
        values: dict[str, int] = {}
        for r in self.export_records:
            values.setdefault(r.name, r.value)
        return values

    @cached_property
    def exports(self) -> tuple[str, ...]:
        """Exported names, each once, in table order."""
        return tuple(self.export_values)

    @cached_property
    def export_function_starts(self) -> frozenset[int]:
        return frozenset(s.value for s in self.export_records
                         if s.kind == "function")

    @cached_property
    def defined_function_starts(self) -> frozenset[int]:
        """Starts of every known function: exported plus symtab-only ones."""
        return frozenset(s.value for s in self.symbols if s.kind == "function")

    @cached_property
    def exec_function_starts(self) -> frozenset[int]:
        """Known function starts that lie in an executable section."""
        return frozenset(off for off in self.defined_function_starts
                         if self.in_executable_range(off))

    @cached_property
    def function_exports(self) -> dict[str, tuple[int, ...]]:
        """Exported function name -> every offset it is exported at in an
        executable section (a versioned name may have several)."""
        offsets: dict[str, list[int]] = {}
        for r in self.export_records:
            if r.kind == "function" and self.in_executable_range(r.value):
                offsets.setdefault(r.name, []).append(r.value)
        return {name: tuple(offs) for name, offs in offsets.items()}

    @cached_property
    def imported_names(self) -> frozenset[str]:
        """Names bound to other modules: imports plus PLT-stub symbols.  A
        stub's symbol counts even when the module defines it, because an
        earlier-loaded exporter interposes on the stub."""
        return frozenset(self.imports).union(e.symbol for e in self.plt_entries)

    @cached_property
    def plt_symbols(self) -> dict[int, str]:
        """PLT stub offset -> the symbol it calls."""
        return {e.address: e.symbol for e in self.plt_entries}

    @cached_property
    def granule_boundaries(self) -> tuple[int, ...]:
        """Sorted granule-carving starts: all known, or exported if stripped."""
        return tuple(sorted(self.export_function_starts if self.stripped
                            else self.defined_function_starts))

    @cached_property
    def function_intervals(self) -> tuple[tuple[int, int, int], ...]:
        """Sorted, distinct (start, end, reach) for functions with a nonzero
        size; reach is the largest end up to and including this entry."""
        ivs = sorted({(s.value, s.value + s.size) for s in self.symbols
                      if s.kind == "function" and s.size > 0})
        reaches = accumulate((hi for _lo, hi in ivs), max)
        return tuple((lo, hi, r) for (lo, hi), r in zip(ivs, reaches))

    @cached_property
    def callback_candidates(self) -> tuple[tuple[int, bool, str], ...]:
        """Distinct ``(value, base-relative?, pattern)`` function-pointer
        candidates in scan order; :func:`dyncfi.policy.scan_callbacks`
        rebases and admits them per load.

        Byte patterns over executable sections (x86-32 encodings) give
        absolute values, as do the little-endian words of ``.data``:
            push-imm32               68 <imm32>
            mov-imm32-to-stack-slot  c7 44 24 <disp8> <imm32>
                                     c7 84 24 <disp32> <imm32>
        Base-relative values are the ``.got.plt`` offset plus the
        displacement of a ``lea-ebx-relative`` (8d /r with mod=10 rm=ebx:
        <disp32>) and the addends of relative relocations.
        """
        found: dict[tuple[int, bool, str], None] = {}
        gotplt = self.section(".got.plt")
        for section in self.executable_sections:
            data = section.data
            n = len(data)
            for i in range(n):
                b = data[i]
                if b == 0x68 and i + 5 <= n:
                    found[(struct.unpack_from("<I", data, i + 1)[0], False,
                           PATTERN_PUSH_IMM32)] = None
                elif b == 0xC7 and i + 3 <= n:
                    modrm, sib = data[i + 1], data[i + 2]
                    if modrm == 0x44 and sib == 0x24 and i + 8 <= n:
                        found[(struct.unpack_from("<I", data, i + 4)[0], False,
                               PATTERN_MOV_IMM32)] = None
                    elif modrm == 0x84 and sib == 0x24 and i + 11 <= n:
                        found[(struct.unpack_from("<I", data, i + 7)[0], False,
                               PATTERN_MOV_IMM32)] = None
                elif b == 0x8D and i + 6 <= n and gotplt is not None:
                    if (data[i + 1] & 0xC7) == 0x83:  # mod=10, rm=ebx
                        disp = struct.unpack_from("<i", data, i + 2)[0]
                        found[(gotplt.virtual_offset + disp, True,
                               PATTERN_LEA_EBX)] = None
        for reloc in self.relocations:
            if reloc.kind == "relative":
                found[(reloc.addend, True, PATTERN_RELATIVE_RELOC)] = None
        data_section = self.section(".data")
        if data_section is not None and data_section.data:
            raw = data_section.data
            for off in range(0, len(raw) - 3, 4):
                found[(struct.unpack_from("<I", raw, off)[0], False,
                       PATTERN_DATA_SCAN)] = None
        return tuple(found)

    @cached_property
    def symbol_instruction_map(self) -> InstructionMap:
        """Instruction starts known from symbols alone: the function starts
        and PLT stubs that lie in executable sections."""
        starts = self.exec_function_starts.union(
            p.address for p in self.plt_entries
            if self.in_executable_range(p.address))
        return InstructionMap(offsets=tuple(sorted(starts)))

    def export_value(self, name: str) -> int | None:
        return self.export_values.get(name)

    def stripped_twin(self) -> "ModuleImage":
        """The same module with its full symbol table removed."""
        kept = tuple(s for s in self.symbols if s.origin == "dynsym")
        return replace(self, symbols=kept, stripped=True,
                       module_id=self.module_id + "+stripped")

    def to_dict(self) -> dict:
        local_starts = self.defined_function_starts - self.export_function_starts
        return {
            "module_id": self.module_id,
            "path": self.path,
            "elf_class": self.elf_class,
            "stripped": self.stripped,
            "sections": [
                {"name": s.name, "virtual_offset": hex(s.virtual_offset),
                 "size": s.size, "executable": s.executable,
                 "writable": s.writable}
                for s in self.sections
            ],
            "symbols": {
                "dynsym": sum(1 for s in self.symbols if s.origin == "dynsym"),
                "symtab": sum(1 for s in self.symbols if s.origin == "symtab"),
            },
            "exports": list(self.exports),
            "imports": list(self.imports),
            "locals": sorted(
                {s.name for s in self.symbols
                 if s.kind == "function" and s.value in local_starts}),
            "plt": [{"address": hex(p.address), "symbol": p.symbol}
                    for p in self.plt_entries],
            "relocations": [
                {"offset": hex(r.offset), "kind": r.kind,
                 "addend": hex(r.addend), "symbol": r.symbol}
                for r in self.relocations
            ],
        }


@dataclass(frozen=True)
class InstructionMap:
    """Module-relative offsets of known-valid instruction starts."""

    offsets: tuple[int, ...]  # sorted ascending

    def contains(self, offset: int) -> bool:
        i = bisect_right(self.offsets, offset)
        return i > 0 and self.offsets[i - 1] == offset

    def offsets_in(self, lo: int, hi: int) -> tuple[int, ...]:
        """All valid offsets in [lo, hi)."""
        a = bisect_right(self.offsets, lo - 1)
        b = bisect_right(self.offsets, hi - 1)
        return self.offsets[a:b]


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def parse_module(data: bytes, path: str) -> ModuleImage:
    """Parse raw ELF bytes into a :class:`ModuleImage`.

    The header's ``EI_CLASS`` byte selects the ELF32 or ELF64 layout, and
    the image records it as ``elf_class``.

    Args:
        data: Complete file contents.
        path: Path label recorded on the image (also keys sidecar lookups).

    Raises:
        ElfFormatError: On malformed headers or truncated tables.
    """
    if len(data) < 16 or data[:4] != ELF_MAGIC:
        raise ElfFormatError("malformed-header", f"{path}: missing ELF magic")
    ei_class = data[4]
    ei_data = data[5]
    if ei_data != ELFDATA2LSB:
        raise ElfFormatError("malformed-header",
                             f"{path}: only little-endian images are supported")
    if ei_class not in (ELFCLASS32, ELFCLASS64):
        raise ElfFormatError("malformed-header",
                             f"{path}: unknown ELF class {ei_class}")
    return _parse(data, path, is64=ei_class == ELFCLASS64)


def _parse(data: bytes, path: str, *, is64: bool) -> ModuleImage:
    if is64:
        if len(data) < 64:
            raise ElfFormatError("malformed-header", f"{path}: truncated ELF64 header")
        e_shoff = struct.unpack_from("<Q", data, 40)[0]
        e_shentsize, e_shnum, e_shstrndx = struct.unpack_from("<HHH", data, 58)
        shdr_fmt, sym_fmt, sym_size = "<IIQQQQIIQQ", "<IBBHQQ", 24
    else:
        if len(data) < _EHDR32_SIZE:
            raise ElfFormatError("malformed-header", f"{path}: truncated ELF32 header")
        e_shoff = struct.unpack_from("<I", data, 32)[0]
        e_shentsize, e_shnum, e_shstrndx = struct.unpack_from("<HHH", data, 46)
        shdr_fmt, sym_fmt, sym_size = "<IIIIIIIIII", "<IIIBBH", _SYM32_SIZE

    # Section headers
    raw_shdrs = []
    for i in range(e_shnum):
        off = e_shoff + i * e_shentsize
        if off + struct.calcsize(shdr_fmt) > len(data):
            raise ElfFormatError("truncated-section",
                                 f"{path}: section header {i} out of bounds")
        raw_shdrs.append(struct.unpack_from(shdr_fmt, data, off))

    keys = ("name", "type", "flags", "addr", "offset", "size",
            "link", "info", "addralign", "entsize")
    headers = [dict(zip(keys, f)) for f in raw_shdrs]

    def section_bytes(h: dict, label: str) -> bytes:
        if h["type"] == SHT_NOBITS:
            return b""
        lo, hi = h["offset"], h["offset"] + h["size"]
        if hi > len(data):
            raise ElfFormatError("truncated-section",
                                 f"{path}: section {label} exceeds file size")
        return data[lo:hi]

    # Section names
    names = [""] * e_shnum
    if 0 < e_shstrndx < e_shnum:
        shstr = section_bytes(headers[e_shstrndx], ".shstrtab")
        names = [_cstr(shstr, h["name"]) for h in headers]

    sections: list[Section] = []
    for i, h in enumerate(headers):
        if h["type"] == SHT_NULL:
            continue
        sections.append(Section(
            name=names[i],
            file_offset=h["offset"],
            virtual_offset=h["addr"],
            size=h["size"],
            executable=bool(h["flags"] & SHF_EXECINSTR),
            writable=bool(h["flags"] & SHF_WRITE),
            data=section_bytes(h, names[i] or f"#{i}"),
        ))

    exec_ranges = sorted((s.virtual_offset, s.end) for s in sections
                         if s.executable and s.size > 0)
    for (a_lo, a_hi), (b_lo, b_hi) in zip(exec_ranges, exec_ranges[1:]):
        if b_lo < a_hi:
            raise ElfFormatError(
                "malformed-section",
                f"{path}: overlapping executable sections at {hex(b_lo)}")

    def strtab_for(idx: int) -> bytes:
        if 0 <= idx < e_shnum:
            return section_bytes(headers[idx], names[idx] or ".strtab")
        return b""

    def read_symbols(table_idx: int, origin: str
                     ) -> tuple[list[SymbolRecord], list[str], list[str]]:
        """Returns (defined records, import names, every entry's name by
        symbol index)."""
        h = headers[table_idx]
        strtab = strtab_for(h["link"])
        raw = section_bytes(h, names[table_idx])
        records: list[SymbolRecord] = []
        und: list[str] = []
        by_index: list[str] = [""]
        # Entry 0 is the null symbol; a trailing partial entry is ignored.
        for f in struct.iter_unpack(sym_fmt,
                                    raw[sym_size:len(raw) - len(raw) % sym_size]):
            if is64:
                st_name, st_info, _other, st_shndx, st_value, st_size = f
            else:
                st_name, st_value, st_size, st_info, _other, st_shndx = f
            name = _cstr(strtab, st_name)
            by_index.append(name)
            st_type = st_info & 0xF
            st_bind = (st_info >> 4) & 0xF
            if st_type in (STT_SECTION, STT_FILE) or not name:
                continue
            if st_shndx == SHN_UNDEF:
                if origin == "dynsym":
                    und.append(name)
                continue
            if st_shndx >= SHN_LORESERVE:
                continue  # ABS/COMMON markers are not code/data locations
            records.append(SymbolRecord(
                name=name, value=st_value, size=st_size,
                kind=_KIND_NAMES.get(st_type, "other"),
                binding=_BIND_NAMES.get(st_bind, "local"),
                origin=origin,
            ))
        return records, und, by_index

    symbols: list[SymbolRecord] = []
    imports: list[str] = []
    dyn_names: list[str] = [""]  # relocation symbol lookup, by index
    for i, h in enumerate(headers):
        if h["type"] == SHT_DYNSYM:
            recs, und, dyn_names = read_symbols(i, "dynsym")
            symbols.extend(recs)
            imports.extend(und)
    has_symtab_records = False
    for i, h in enumerate(headers):
        if h["type"] == SHT_SYMTAB:
            recs, _und, _names = read_symbols(i, "symtab")
            if recs:
                has_symtab_records = True
            symbols.extend(recs)

    def word_at_vaddr(vaddr: int) -> int:
        for s in sections:
            if s.data and s.contains(vaddr) and vaddr + 4 <= s.end:
                off = vaddr - s.virtual_offset
                return struct.unpack_from("<I", s.data, off)[0]
        return 0

    relocations: list[RelocationRecord] = []
    jmp_slots: dict[int, str] = {}  # got slot vaddr -> symbol name
    for i, h in enumerate(headers):
        if h["type"] not in (SHT_REL, SHT_RELA):
            continue
        raw = section_bytes(h, names[i])
        if h["type"] == SHT_REL:
            ent, fmt = ((16, "<QQ") if is64 else (_REL32_SIZE, "<II"))
        else:
            ent, fmt = ((24, "<QQq") if is64 else (12, "<IIi"))
        for fields in struct.iter_unpack(fmt, raw[:len(raw) - len(raw) % ent]):
            r_offset, r_info = fields[0], fields[1]
            if is64:
                r_type, r_sym = r_info & 0xFFFFFFFF, r_info >> 32
            else:
                r_type, r_sym = r_info & 0xFF, r_info >> 8
            if r_type == R_386_RELATIVE:
                addend = fields[2] if h["type"] == SHT_RELA else word_at_vaddr(r_offset)
                relocations.append(RelocationRecord(
                    offset=r_offset, kind="relative", addend=addend))
            elif r_type == R_386_JMP_SLOT:
                sym = dyn_names[r_sym] if r_sym < len(dyn_names) else ""
                addend = fields[2] if h["type"] == SHT_RELA else word_at_vaddr(r_offset)
                relocations.append(RelocationRecord(
                    offset=r_offset, kind="jmp-slot", addend=addend, symbol=sym))
                if sym:
                    jmp_slots[r_offset] = sym

    plt_entries = _decode_plt(sections, jmp_slots, is64)

    module_id = f"{path}:{hashlib.sha1(data).hexdigest()[:10]}"
    return ModuleImage(
        module_id=module_id,
        path=path,
        sections=tuple(sections),
        symbols=tuple(symbols),
        imports=tuple(dict.fromkeys(imports)),
        plt_entries=tuple(plt_entries),
        relocations=tuple(relocations),
        stripped=not has_symtab_records,
        elf_class=ELFCLASS64 if is64 else ELFCLASS32,
    )


def _decode_plt(sections: list[Section], jmp_slots: dict[int, str],
                is64: bool) -> list[PltEntry]:
    """Match 16-byte .plt strides to GOT slots named by jmp-slot relocations.

    Recognises ``jmp *abs32`` (ff 25, RIP-relative on x86-64) and the
    i386 PIC form ``jmp *disp32(%ebx)`` (ff a3, ebx = .got.plt). Strides
    that do not decode (e.g. PLT0) are skipped. Stubs for the module's
    own exports (self-interposable calls under -fPIC) are kept.
    """
    plt = next((s for s in sections if s.name == ".plt" and s.data), None)
    if plt is None or not jmp_slots:
        return []
    gotplt = next((s for s in sections if s.name == ".got.plt"), None)
    entries: list[PltEntry] = []
    for start in range(0, len(plt.data) - 5, PLT_ENTRY_SIZE):
        b0, b1 = plt.data[start], plt.data[start + 1]
        slot = None
        if b0 == 0xFF and b1 == 0x25 and is64:
            disp = struct.unpack_from("<i", plt.data, start + 2)[0]
            slot = plt.virtual_offset + start + 6 + disp
        elif b0 == 0xFF and b1 == 0x25:
            slot = struct.unpack_from("<I", plt.data, start + 2)[0]
        elif b0 == 0xFF and b1 == 0xA3 and gotplt is not None:
            disp = struct.unpack_from("<i", plt.data, start + 2)[0]
            slot = gotplt.virtual_offset + disp
        if slot is None:
            continue
        sym = jmp_slots.get(slot)
        if sym:
            entries.append(PltEntry(address=plt.virtual_offset + start, symbol=sym))
    return entries


def _cstr(buf: bytes, offset: int) -> str:
    if offset < 0 or offset >= len(buf):
        return ""
    end = buf.find(b"\x00", offset)
    if end == -1:
        end = len(buf)
    return buf[offset:end].decode("utf-8", errors="replace")


# ---------------------------------------------------------------------------
# Fixture building
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolSpec:
    """A symbol to place in a fixture module."""

    name: str
    value: int
    size: int = 0
    kind: str = "function"
    binding: str = "global"
    exported: bool = True


@dataclass(frozen=True)
class RelocSpec:
    """A relative relocation to emit; jmp-slot entries derive from ``plt``."""

    offset: int
    addend: int = 0
    kind: str = "relative"


@dataclass(frozen=True)
class FixtureSpec:
    """Everything needed to fabricate one module.

    Virtual layout defaults: .plt at 0x900, .text at 0x1000, .got.plt at
    0x2800, .data at 0x3000.  Symbol values are module-relative virtual
    addresses and must fall inside the section matching their kind.
    ``instruction_offsets`` lists extra known instruction starts beyond
    function entries; they travel in the companion sidecar file (standard
    ELF has no carrier for them), see :func:`sidecar_lines`.
    """

    path: str
    code: bytes
    symbols: tuple[SymbolSpec, ...] = ()
    imports: tuple[str, ...] = ()
    plt: tuple[str, ...] = ()
    relocations: tuple[RelocSpec, ...] = ()
    data: bytes = b""
    instruction_offsets: tuple[int, ...] = ()
    stripped: bool = False
    text_vaddr: int = 0x1000
    plt_vaddr: int = 0x900
    gotplt_vaddr: int = 0x2800
    data_vaddr: int = 0x3000

    def stripped_twin(self) -> "FixtureSpec":
        return replace(self, stripped=True)

    @staticmethod
    def from_dict(d: dict) -> "FixtureSpec":
        def addr(v):
            return int(v, 16) if isinstance(v, str) else int(v)
        return FixtureSpec(
            path=d["path"],
            code=bytes.fromhex(d.get("code", "")) or b"\x90" * int(d.get("code_size", 0)),
            symbols=tuple(SymbolSpec(
                name=s["name"], value=addr(s["value"]), size=int(s.get("size", 0)),
                kind=s.get("kind", "function"), binding=s.get("binding", "global"),
                exported=bool(s.get("exported", True))) for s in d.get("symbols", [])),
            imports=tuple(d.get("imports", [])),
            plt=tuple(d.get("plt", [])),
            relocations=tuple(RelocSpec(offset=addr(r["offset"]),
                                        addend=addr(r.get("addend", 0)))
                              for r in d.get("relocations", [])),
            data=bytes.fromhex(d.get("data", "")),
            instruction_offsets=tuple(addr(o) for o in d.get("instruction_offsets", [])),
            stripped=bool(d.get("stripped", False)),
            text_vaddr=addr(d.get("text_vaddr", 0x1000)),
            plt_vaddr=addr(d.get("plt_vaddr", 0x900)),
            gotplt_vaddr=addr(d.get("gotplt_vaddr", 0x2800)),
            data_vaddr=addr(d.get("data_vaddr", 0x3000)),
        )


def build_fixture(spec: FixtureSpec) -> bytes:
    """Emit a minimal legal ELF32 image satisfying the parse round trip.

    Raises:
        FixtureError: If the description is internally inconsistent
            (symbols outside sections, PLT names not imported, relocation
            offsets outside writable sections, overlapping layout).
    """
    _validate_spec(spec)

    # --- string tables and symbol records ---
    dynstr = bytearray(b"\x00")
    dynstr_off: dict[str, int] = {}

    def dyn_name(n: str) -> int:
        if n not in dynstr_off:
            dynstr_off[n] = len(dynstr)
            dynstr.extend(n.encode() + b"\x00")
        return dynstr_off[n]

    # Section indices depend on which optional sections exist.
    sections_plan: list[str] = [".dynsym", ".dynstr"]
    if not spec.stripped:
        sections_plan += [".symtab", ".strtab"]
    if spec.relocations:
        sections_plan.append(".rel.dyn")
    if spec.plt:
        sections_plan += [".rel.plt", ".plt"]
    sections_plan.append(".text")
    if spec.plt:
        sections_plan.append(".got.plt")
    if _data_window(spec):
        sections_plan.append(".data")
    sections_plan.append(".shstrtab")
    index_of = {name: i + 1 for i, name in enumerate(sections_plan)}  # 0 = null

    def shndx_for(sym: SymbolSpec) -> int:
        if sym.kind == "object":
            return index_of.get(".data", index_of[".text"])
        return index_of[".text"]

    stt = {"function": STT_FUNC, "object": STT_OBJECT, "other": STT_NOTYPE}
    stb = {"local": STB_LOCAL, "global": STB_GLOBAL, "weak": STB_WEAK}

    def pack_sym(name_off: int, value: int, size: int, bind: int, typ: int,
                 shndx: int) -> bytes:
        return struct.pack("<IIIBBH", name_off, value, size,
                           (bind << 4) | typ, 0, shndx)

    dynsym = bytearray(pack_sym(0, 0, 0, 0, 0, 0))
    dynsym_index: dict[str, int] = {}
    for name in spec.imports:
        dynsym_index[name] = len(dynsym) // _SYM32_SIZE
        dynsym += pack_sym(dyn_name(name), 0, 0, STB_GLOBAL, STT_FUNC, SHN_UNDEF)
    for sym in spec.symbols:
        if sym.exported:
            dynsym_index[sym.name] = len(dynsym) // _SYM32_SIZE
            dynsym += pack_sym(dyn_name(sym.name), sym.value, sym.size,
                               stb[sym.binding], stt[sym.kind], shndx_for(sym))

    strtab = bytearray(b"\x00")
    symtab = bytearray(pack_sym(0, 0, 0, 0, 0, 0))
    if not spec.stripped:
        for sym in spec.symbols:
            off = len(strtab)
            strtab.extend(sym.name.encode() + b"\x00")
            symtab += pack_sym(off, sym.value, sym.size,
                               stb[sym.binding], stt[sym.kind], shndx_for(sym))

    # --- relocation sections ---
    rel_dyn = bytearray()
    for r in sorted(spec.relocations, key=lambda r: r.offset):
        rel_dyn += struct.pack("<II", r.offset, R_386_RELATIVE)
    rel_plt = bytearray()
    for i, name in enumerate(spec.plt):
        slot = spec.gotplt_vaddr + 4 * (GOT_RESERVED_SLOTS + i)
        rel_plt += struct.pack("<II", slot, (dynsym_index[name] << 8) | R_386_JMP_SLOT)

    # --- code-carrying sections ---
    plt_bytes = bytearray()
    for i in range(len(spec.plt)):
        entry_addr = spec.plt_vaddr + PLT_ENTRY_SIZE * i
        slot = spec.gotplt_vaddr + 4 * (GOT_RESERVED_SLOTS + i)
        stub = b"\xff\x25" + struct.pack("<I", slot)            # jmp *slot
        stub += b"\x68" + struct.pack("<I", i * 8)              # push reloc arg
        stub += b"\xe9" + struct.pack("<i", spec.plt_vaddr - (entry_addr + 16))
        plt_bytes += stub

    gotplt_bytes = bytearray(4 * GOT_RESERVED_SLOTS)
    for i in range(len(spec.plt)):
        # Lazy-binding convention: slot initially points past the stub's jmp.
        gotplt_bytes += struct.pack("<I", spec.plt_vaddr + PLT_ENTRY_SIZE * i + 6)

    data_bytes = bytearray(spec.data)
    # Addends for REL-format entries live at the relocated location.
    for r in spec.relocations:
        target = _in(spec, r.offset)
        if target == ".data":
            off = r.offset - spec.data_vaddr
            if off + 4 > len(data_bytes):
                data_bytes.extend(b"\x00" * (off + 4 - len(data_bytes)))
            struct.pack_into("<I", data_bytes, off, r.addend & 0xFFFFFFFF)
        else:  # .got.plt
            off = r.offset - spec.gotplt_vaddr
            struct.pack_into("<I", gotplt_bytes, off, r.addend & 0xFFFFFFFF)

    shstrtab = bytearray(b"\x00")
    shname: dict[str, int] = {}
    for name in sections_plan:
        shname[name] = len(shstrtab)
        shstrtab.extend(name.encode() + b"\x00")

    # --- file layout ---
    payload = {
        ".dynsym": bytes(dynsym), ".dynstr": bytes(dynstr),
        ".symtab": bytes(symtab), ".strtab": bytes(strtab),
        ".rel.dyn": bytes(rel_dyn), ".rel.plt": bytes(rel_plt),
        ".plt": bytes(plt_bytes), ".text": spec.code,
        ".got.plt": bytes(gotplt_bytes), ".data": bytes(data_bytes),
        ".shstrtab": bytes(shstrtab),
    }
    vaddr = {".plt": spec.plt_vaddr, ".text": spec.text_vaddr,
             ".got.plt": spec.gotplt_vaddr, ".data": spec.data_vaddr}
    flags = {".plt": SHF_ALLOC | SHF_EXECINSTR, ".text": SHF_ALLOC | SHF_EXECINSTR,
             ".got.plt": SHF_ALLOC | SHF_WRITE, ".data": SHF_ALLOC | SHF_WRITE,
             ".dynsym": SHF_ALLOC, ".dynstr": SHF_ALLOC}
    types = {".dynsym": SHT_DYNSYM, ".dynstr": SHT_STRTAB, ".symtab": SHT_SYMTAB,
             ".strtab": SHT_STRTAB, ".rel.dyn": SHT_REL, ".rel.plt": SHT_REL,
             ".plt": SHT_PROGBITS, ".text": SHT_PROGBITS, ".got.plt": SHT_PROGBITS,
             ".data": SHT_PROGBITS, ".shstrtab": SHT_STRTAB}
    entsizes = {".dynsym": _SYM32_SIZE, ".symtab": _SYM32_SIZE,
                ".rel.dyn": _REL32_SIZE, ".rel.plt": _REL32_SIZE}
    links = {".dynsym": index_of[".dynstr"],
             ".symtab": index_of.get(".strtab", 0),
             ".rel.dyn": index_of[".dynsym"],
             ".rel.plt": index_of[".dynsym"]}

    out = bytearray(b"\x00" * _EHDR32_SIZE)
    file_off: dict[str, int] = {}
    for name in sections_plan:
        while len(out) % 16:
            out += b"\x00"
        file_off[name] = len(out)
        out += payload[name]
    while len(out) % 16:
        out += b"\x00"
    shoff = len(out)

    shdrs = bytearray(b"\x00" * _SHDR32_SIZE)  # null section header
    for name in sections_plan:
        shdrs += struct.pack(
            "<IIIIIIIIII", shname[name], types[name], flags.get(name, 0),
            vaddr.get(name, 0), file_off[name], len(payload[name]),
            links.get(name, 0), 0, 4, entsizes.get(name, 0))
    out += shdrs

    struct.pack_into("<4sBBB", out, 0, ELF_MAGIC, ELFCLASS32, ELFDATA2LSB, EV_CURRENT)
    struct.pack_into("<HHIIIIIHHHHHH", out, 16,
                     ET_DYN, EM_386, EV_CURRENT,
                     spec.text_vaddr,          # e_entry
                     0,                        # e_phoff (no program headers)
                     shoff, 0, _EHDR32_SIZE,
                     0, 0,                     # e_phentsize, e_phnum
                     _SHDR32_SIZE, len(sections_plan) + 1,
                     index_of[".shstrtab"])
    return bytes(out)


def _data_window(spec: FixtureSpec) -> int:
    """Effective .data size: declared bytes, extended to cover relocations."""
    size = len(spec.data)
    gotplt_end = spec.gotplt_vaddr + 4 * (GOT_RESERVED_SLOTS + len(spec.plt))
    for r in spec.relocations:
        in_gotplt = spec.plt and spec.gotplt_vaddr <= r.offset < gotplt_end
        if not in_gotplt and r.offset >= spec.data_vaddr:
            size = max(size, r.offset + 4 - spec.data_vaddr)
    return size


def _in(spec: FixtureSpec, offset: int) -> str:
    """Which writable fixture section an offset falls in (for relocations)."""
    gotplt_end = spec.gotplt_vaddr + 4 * (GOT_RESERVED_SLOTS + len(spec.plt))
    if spec.plt and spec.gotplt_vaddr <= offset and offset + 4 <= gotplt_end:
        return ".got.plt"
    if spec.data_vaddr <= offset and offset + 4 <= spec.data_vaddr + _data_window(spec):
        return ".data"
    raise FixtureError("inconsistent-spec",
                       f"relocation offset {hex(offset)} outside writable sections")


def _validate_spec(spec: FixtureSpec) -> None:
    def fail(msg: str):
        raise FixtureError("inconsistent-spec", f"{spec.path}: {msg}")

    if not spec.code:
        fail("empty code section")
    text_end = spec.text_vaddr + len(spec.code)
    plt_end = spec.plt_vaddr + PLT_ENTRY_SIZE * len(spec.plt)
    ranges = [(spec.text_vaddr, text_end, ".text")]
    if spec.plt:
        ranges.append((spec.plt_vaddr, plt_end, ".plt"))
        ranges.append((spec.gotplt_vaddr,
                       spec.gotplt_vaddr + 4 * (GOT_RESERVED_SLOTS + len(spec.plt)),
                       ".got.plt"))
    data_window = _data_window(spec)
    if data_window:
        ranges.append((spec.data_vaddr, spec.data_vaddr + data_window, ".data"))
    ranges.sort()
    for (a_lo, a_hi, a_n), (b_lo, b_hi, b_n) in zip(ranges, ranges[1:]):
        if b_lo < a_hi:
            fail(f"sections {a_n} and {b_n} overlap")

    names = set()
    for sym in spec.symbols:
        if not sym.name:
            fail("symbol with empty name")
        if sym.name in names:
            fail(f"duplicate symbol name {sym.name!r}")
        names.add(sym.name)
        if sym.binding == "local" and sym.exported:
            fail(f"symbol {sym.name!r}: local binding cannot be exported")
        if sym.kind == "object":
            lo, hi = spec.data_vaddr, spec.data_vaddr + len(spec.data)
        else:
            lo, hi = spec.text_vaddr, text_end
        if not (lo <= sym.value and sym.value + sym.size <= hi):
            fail(f"symbol {sym.name!r} at {hex(sym.value)} outside its section")
    for name in spec.plt:
        if name not in spec.imports:
            fail(f"PLT entry {name!r} not in imports")
    for off in spec.instruction_offsets:
        in_text = spec.text_vaddr <= off < text_end
        in_plt = spec.plt and spec.plt_vaddr <= off < plt_end
        if not (in_text or in_plt):
            fail(f"instruction offset {hex(off)} outside executable sections")
    for r in spec.relocations:
        if r.kind != "relative":
            fail(f"unsupported relocation kind {r.kind!r} (jmp-slot derives from plt)")
        _in(spec, r.offset)  # raises if outside writable sections


# ---------------------------------------------------------------------------
# Instruction boundary maps and sidecar files
# ---------------------------------------------------------------------------

#: Instruction boundaries from an external disassembly step, one map per
#: module path.
SidecarTable = dict[str, InstructionMap]


def load_sidecar(text: str) -> SidecarTable:
    """Parse a sidecar file.

    Line format: ``<module-path> <hex-offset>``, offsets ascending per
    module.  Blank lines and ``#`` comments are ignored.
    """
    table: dict[str, list[int]] = {}
    # Only "\n" ends a line: a module path may hold U+2028 and friends.
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.rsplit(None, 1)
        if len(parts) != 2:
            raise SidecarError("malformed-sidecar",
                               f"line {lineno}: expected '<path> <hex-offset>'")
        path, off_s = parts
        try:
            off = int(off_s, 16)
        except ValueError:
            raise SidecarError("malformed-sidecar",
                               f"line {lineno}: bad hex offset {off_s!r}") from None
        bucket = table.setdefault(path, [])
        if bucket and off <= bucket[-1]:
            raise SidecarError("malformed-sidecar",
                               f"line {lineno}: offsets for {path} not ascending")
        bucket.append(off)
    return {p: InstructionMap(offsets=tuple(v)) for p, v in table.items()}


def sidecar_lines(spec: FixtureSpec) -> list[str]:
    """Boundary lines for a fixture: function starts plus declared offsets."""
    offsets = {s.value for s in spec.symbols if s.kind == "function"}
    offsets.update(spec.instruction_offsets)
    offsets.update(spec.plt_vaddr + PLT_ENTRY_SIZE * i for i in range(len(spec.plt)))
    return [f"{spec.path} {off:#x}" for off in sorted(offsets)]


def derive_instruction_map(module: ModuleImage,
                           sidecar: SidecarTable | None = None) -> InstructionMap:
    """The valid-instruction-start map for one module.

    With a sidecar, the map it lists for the module's path is adopted
    verbatim (the external disassembler is trusted to include every
    function entry).  Without one, only symbols are known:
    :attr:`ModuleImage.symbol_instruction_map`, which holds every function
    start of a non-stripped module and the exported ones otherwise.

    Raises:
        SidecarError: If a sidecar is supplied but does not reference this
            module's path, or lists offsets outside executable ranges.
    """
    if sidecar is None:
        return module.symbol_instruction_map
    imap = sidecar.get(module.path)
    if imap is None:
        raise SidecarError("sidecar-module-mismatch",
                           f"sidecar has no entries for {module.path!r}")
    # The offsets ascend and the ranges are disjoint, so every offset is
    # executable exactly when the ranges hold all of them between them.
    offsets = imap.offsets
    inside = sum(bisect_left(offsets, hi) - bisect_left(offsets, lo)
                 for lo, hi in module.executable_ranges)
    if inside != len(offsets):
        off = next(o for o in offsets if not module.in_executable_range(o))
        raise SidecarError(
            "sidecar-module-mismatch",
            f"{module.path}: offset {hex(off)} outside executable ranges")
    return imap
