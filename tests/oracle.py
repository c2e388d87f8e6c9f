"""Brute-force re-derivation of the transfer rules, for cross-checking.

Deliberately shares no code with the engine: it consumes plain-dict
module descriptors (the generator's ground truth, not parsed images) and
recomputes allowed sets by naive iteration on every query.

Descriptor shape (all offsets module-relative unless noted)::

    module = {
        "id": str, "path": str, "base": int, "stripped": bool,
        "sections": [{"lo": int, "hi": int, "exec": bool}],
        "imap": [int, ...],                      # valid instruction starts
        "exports": [{"name", "value", "size", "kind"}],
        "locals":  [{"name", "value", "size", "kind"}],
        "imports": [str, ...],
    }
    process = {"modules": [module, ...],         # in load order
               "callbacks": [abs int, ...],
               "allowlist": [(module key, symbol), ...]}

Rules re-derived here:
  1. calls may target functions defined in the source module (all known
     ones when not stripped; with a stripped module only instruction-level
     knowledge remains, so any known-valid instruction of the module) or
     exported functions the source module imports, from any loaded
     exporter; admitted callback addresses are callable from anywhere.
  2. jumps may stay inside the enclosing function (stripped: the
     section/export granule) at valid instructions, or tail-call into the
     allowed call-target set.
  4. every transfer must land on a known-valid instruction start.
  5. callback heuristics admit a pointer-creation candidate found by a
     byte-by-byte scan when it resolves to a valid instruction start.
"""

from __future__ import annotations

from fractions import Fraction


def module_of(process: dict, addr: int, exec_only: bool = True) -> dict | None:
    for m in process["modules"]:
        for s in m["sections"]:
            if exec_only and not s["exec"]:
                continue
            if m["base"] + s["lo"] <= addr < m["base"] + s["hi"]:
                return m
    return None


def is_instruction(process: dict, addr: int) -> bool:
    m = module_of(process, addr)
    return m is not None and (addr - m["base"]) in m["imap"]


def exec_functions(m: dict, which: str) -> list[dict]:
    syms = m["exports"] if which == "exports" else m["locals"]
    out = []
    for s in syms:
        if s["kind"] != "function":
            continue
        if any(sec["exec"] and sec["lo"] <= s["value"] < sec["hi"]
               for sec in m["sections"]):
            out.append(s)
    return out


def call_targets(process: dict, src_module_id: str) -> set[int]:
    src = next(m for m in process["modules"] if m["id"] == src_module_id)
    out: set[int] = set()
    # functions defined in the source module
    if not src["stripped"]:
        for s in exec_functions(src, "exports") + exec_functions(src, "locals"):
            out.add(src["base"] + s["value"])
    else:
        for off in src["imap"]:
            out.add(src["base"] + off)
    # exported functions the source imports, from any loaded exporter
    for exporter in process["modules"]:
        for s in exec_functions(exporter, "exports"):
            if s["name"] in src["imports"]:
                out.add(exporter["base"] + s["value"])
    # callback addresses are callable from anywhere
    out.update(process["callbacks"])
    # allowlisted (module, symbol) grants
    basename = src["path"].rsplit("/", 1)[-1]
    for key, symbol in process.get("allowlist", ()):
        if key not in (src["path"], basename):
            continue
        for exporter in process["modules"]:
            for s in exec_functions(exporter, "exports"):
                if s["name"] == symbol:
                    out.add(exporter["base"] + s["value"])
    return out


def extent(process: dict, addr: int) -> tuple[int, int] | None:
    m = module_of(process, addr)
    if m is None:
        return None
    off = addr - m["base"]
    if not m["stripped"]:
        candidates = []
        for s in exec_functions(m, "exports") + exec_functions(m, "locals"):
            if s["size"] > 0 and s["value"] <= off < s["value"] + s["size"]:
                candidates.append((s["value"], s["value"] + s["size"]))
        if candidates:
            lo, hi = max(candidates)  # innermost (largest start)
            return (m["base"] + lo, m["base"] + hi)
        boundaries = sorted({s["value"] for s in
                             exec_functions(m, "exports") + exec_functions(m, "locals")})
    else:
        boundaries = sorted({s["value"] for s in exec_functions(m, "exports")})
    section = next(s for s in m["sections"]
                   if s["exec"] and s["lo"] <= off < s["hi"])
    inside = [b for b in boundaries if section["lo"] <= b < section["hi"]]
    lo = max((b for b in inside if b <= off), default=section["lo"])
    hi = min((b for b in inside if b > off), default=section["hi"])
    return (m["base"] + lo, m["base"] + hi)


def check_call(process: dict, src: int, dst: int) -> dict:
    src_mod = module_of(process, src)
    assert src_mod is not None
    targets = call_targets(process, src_mod["id"])
    size = len(targets)
    if not is_instruction(process, dst):
        return {"decision": "deny", "size": size, "rule": "valid-instruction"}
    if dst not in targets:
        dst_mod = module_of(process, dst)
        rule = ("call-local" if dst_mod is src_mod else "call-import")
        return {"decision": "deny", "size": size, "rule": rule}
    return {"decision": "allow", "size": size,
            "rule": _allow_rule(process, src_mod, dst)}


def _allow_rule(process: dict, src_mod: dict, dst: int) -> str:
    dst_mod = module_of(process, dst)
    if dst_mod is src_mod:
        off = dst - src_mod["base"]
        if not src_mod["stripped"]:
            defined = {s["value"] for s in
                       exec_functions(src_mod, "exports") + exec_functions(src_mod, "locals")}
            if off in defined:
                return "call-local"
        else:
            if off in src_mod["imap"]:
                return "call-local"
    if dst_mod is not None:
        for s in exec_functions(dst_mod, "exports"):
            if dst_mod["base"] + s["value"] == dst and s["name"] in src_mod["imports"]:
                return "call-import"
    if dst in process["callbacks"]:
        return "callback-admitted"
    return "call-import"  # allowlist fallback


def check_jump(process: dict, src: int, dst: int) -> dict:
    src_mod = module_of(process, src)
    assert src_mod is not None
    ext = extent(process, src)
    ext_instrs: set[int] = set()
    if ext is not None:
        ext_instrs = {src_mod["base"] + off for off in src_mod["imap"]
                      if ext[0] <= src_mod["base"] + off < ext[1]}
    targets = call_targets(process, src_mod["id"])
    size = len(ext_instrs | targets)
    valid = is_instruction(process, dst)
    if valid and ext is not None and ext[0] <= dst < ext[1]:
        return {"decision": "allow", "size": size, "rule": "jump-intra-function"}
    if valid and dst in targets:
        return {"decision": "allow", "size": size, "rule": "jump-tail-call"}
    if not valid:
        return {"decision": "deny", "size": size, "rule": "valid-instruction"}
    dst_mod = module_of(process, dst)
    rule = "jump-intra-function" if dst_mod is src_mod else "jump-tail-call"
    return {"decision": "deny", "size": size, "rule": rule}


def build_table(process: dict) -> dict[int, set[str]]:
    """Target address -> allowed source module ids ('*' for callbacks)."""
    table: dict[int, set[str]] = {}
    for m in process["modules"]:
        if not m["stripped"]:
            for s in exec_functions(m, "exports") + exec_functions(m, "locals"):
                table.setdefault(m["base"] + s["value"], set()).add(m["id"])
        else:
            for off in m["imap"]:
                table.setdefault(m["base"] + off, set()).add(m["id"])
    for exporter in process["modules"]:
        for s in exec_functions(exporter, "exports"):
            for importer in process["modules"]:
                if s["name"] in importer["imports"]:
                    table.setdefault(exporter["base"] + s["value"],
                                     set()).add(importer["id"])
    for addr in process["callbacks"]:
        table.setdefault(addr, set()).add("*")
    return table


def recompute_dair(records) -> Fraction:
    """Exact recomputation of the running metric from raw records."""
    assert records
    total = Fraction(0)
    for rec in records:
        total += 1 - Fraction(rec.allowed, rec.universe)
    return total / len(records)


def recompute_dair_floats(records) -> float:
    """Second, simple float summation path, added left to right.

    An explicit loop, not ``sum()``: from Python 3.12 ``sum()`` of floats
    is compensated, so its bits would differ from the engine's running
    left-to-right total that tests compare exactly.
    """
    total = 0.0
    for rec in records:
        total += 1.0 - rec.allowed / rec.universe
    return total / len(records)


def callback_findings(process: dict, m: dict) -> list[tuple[int, str]]:
    """``(address, pattern)`` the callback heuristics admit for module
    ``m``, in the order a byte-by-byte scan first finds them.

    ``m`` carries, besides ``base``, the raw material of the scan:
    ``"code"``: ``[(offset, bytes)]`` per executable section in section
    order, ``"gotplt"``: the ``.got.plt`` offset or None, ``"relative"``:
    the addends of relative relocations in order, ``"data"``: the
    ``.data`` bytes.  A candidate is admitted when it is a valid
    instruction start of ``process`` (a descriptor as above, holding only
    ``base``, ``sections`` and ``imap`` per module).
    """
    base = m["base"]
    hits: list[tuple[int, str]] = []
    for _offset, code in m["code"]:
        for i in range(len(code)):
            w = code[i:i + 11]
            if w[:1] == b"\x68" and len(w) >= 5:
                hits.append((int.from_bytes(w[1:5], "little"), "push-imm32"))
            elif w[:3] == b"\xc7\x44\x24" and len(w) >= 8:
                hits.append((int.from_bytes(w[4:8], "little"),
                             "mov-imm32-to-stack-slot"))
            elif w[:3] == b"\xc7\x84\x24" and len(w) >= 11:
                hits.append((int.from_bytes(w[7:11], "little"),
                             "mov-imm32-to-stack-slot"))
            elif (w[:1] == b"\x8d" and len(w) >= 6 and m["gotplt"] is not None
                  and w[1] >> 6 == 0b10 and w[1] & 0b111 == 0b011):
                # lea disp32(%ebx): %ebx holds .got.plt; the sum is not wrapped
                disp = int.from_bytes(w[2:6], "little", signed=True)
                hits.append((base + m["gotplt"] + disp, "lea-ebx-relative"))
    for addend in m["relative"]:
        hits.append(((base + addend) % 2**32, "relative-relocation"))
    data = m["data"]
    for off in range(0, len(data) - len(data) % 4, 4):
        hits.append((int.from_bytes(data[off:off + 4], "little"), "data-scan"))
    out: list[tuple[int, str]] = []
    for hit in hits:
        if hit not in out and is_instruction(process, hit[0]):
            out.append(hit)
    return out
