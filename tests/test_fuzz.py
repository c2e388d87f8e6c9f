"""Mutated ELF, trace, sidecar and allowlist input ends in a coded error.

Byte-level mutations of a small valid workspace go through the parsers and
through ``dyncfi check``. Only :class:`DynCfiError` may escape a parser, and
the CLI must answer 0, 1 or 2; a traceback of any other kind fails the test.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import EXE_BASE, LIB_BASE, load_events, renumber, two_module_workspace

from dyncfi import (
    DynCfiError,
    TraceError,
    TraceEvent,
    build_fixture,
    events_to_jsonl,
    load_sidecar,
    parse_module,
    parse_trace,
    sidecar_lines,
)
from dyncfi import trace as trace_mod
from dyncfi.cli import main
from dyncfi.process import ADDRESS_LIMIT

FUZZ = settings(max_examples=150, derandomize=True, deadline=None,
                database=None)

#: Replacement tokens that reach past the JSON and hex syntax checks.
TOKENS = (b"true", b"false", b"null", b"-1", b"0", b"1e999", b"[", b"{}",
          b'"0x100000000"', b'"-0x10"', b"4294967296", b"\xff", b"\x00",
          b" ", b"\n", b"#", b"0x")


def workspace_files() -> dict[str, bytes]:
    """A valid two-module workspace whose trace has every event kind."""
    specs, _images, _sidecar = two_module_workspace()
    files = {path: build_fixture(spec) for path, spec in specs.items()}
    files["boundaries.sidecar"] = "\n".join(
        line for spec in specs.values() for line in sidecar_lines(spec)).encode()
    events = renumber(load_events() + [
        TraceEvent(0, 0, "indirect-call", src=EXE_BASE + 0x1004,
                   dst=LIB_BASE + 0x1000, length=5),
        TraceEvent(0, 0, "indirect-jump", src=LIB_BASE + 0x1004,
                   dst=LIB_BASE + 0x100c),
        TraceEvent(0, 0, "direct-call", src=LIB_BASE + 0x100c,
                   dst=LIB_BASE + 0x1040, length=5),
        TraceEvent(0, 0, "exception-unwind", target=EXE_BASE + 0x1009),
        TraceEvent(0, 0, "return", src=LIB_BASE + 0x1044, dst=EXE_BASE + 0x1009),
        TraceEvent(0, 0, "plt-call", src=EXE_BASE + 0x1008,
                   dst=EXE_BASE + 0x900, length=5),
        TraceEvent(0, 0, "direct-jump", src=LIB_BASE + 0x1004,
                   dst=LIB_BASE + 0x100c),
        TraceEvent(0, 0, "return", src=LIB_BASE + 0x100c, dst=EXE_BASE + 0x100d),
        TraceEvent(0, 0, "code-write", addr=EXE_BASE + 0x1010),
        TraceEvent(0, 0, "unload", path="libfoo.so"),
    ])
    files["trace.jsonl"] = events_to_jsonl(events).encode()
    files["allow.txt"] = b"# extra grants\napp bar\n"
    return files


FILES = workspace_files()


@st.composite
def mutated(draw, name: str) -> bytes:
    buf = bytearray(FILES[name])
    for _ in range(draw(st.integers(1, 6))):
        pos = draw(st.integers(0, len(buf)))
        op = draw(st.sampled_from(("set", "insert", "delete", "token", "cut")))
        if op == "set" and pos < len(buf):
            buf[pos] = draw(st.integers(0, 255))
        elif op == "insert":
            buf[pos:pos] = draw(st.binary(min_size=1, max_size=8))
        elif op == "delete":
            del buf[pos:pos + draw(st.integers(1, 16))]
        elif op == "token":
            buf[pos:pos + draw(st.integers(0, 4))] = draw(st.sampled_from(TOKENS))
        elif op == "cut":
            del buf[pos:]
    return bytes(buf)


@FUZZ
@given(st.sampled_from(("app", "libfoo.so")).flatmap(mutated))
def test_fuzz_parse_module(data):
    try:
        parse_module(data, "fuzz")
    except DynCfiError:
        pass


@FUZZ
@given(mutated("trace.jsonl"))
def test_fuzz_parse_trace(data):
    try:
        parse_trace(data)
    except DynCfiError:
        pass


@FUZZ
@given(mutated("boundaries.sidecar"))
def test_fuzz_load_sidecar(data):
    try:
        load_sidecar(data.decode("latin-1"))
    except DynCfiError:
        pass


@FUZZ
@given(st.sampled_from(sorted(FILES)).flatmap(
    lambda name: st.tuples(st.just(name), mutated(name))))
def test_fuzz_check_command(case):
    name, data = case
    with tempfile.TemporaryDirectory() as tmp:
        ws = Path(tmp)
        for file, content in FILES.items():
            (ws / file).write_bytes(data if file == name else content)
        code = main(["check", "--trace", str(ws / "trace.jsonl"),
                     "--sidecar", str(ws / "boundaries.sidecar"),
                     "--allowlist", str(ws / "allow.txt"),
                     "-o", str(ws / "report.json")])
    assert code in (0, 1, 2)


# The per-line validator as it stood before the per-kind field table, kept
# unchanged in logic (its kind sets included) as the reference for the
# table-driven one.
_OLD_EVENT_KINDS = frozenset({
    "load", "unload", "direct-call", "indirect-call", "direct-jump",
    "indirect-jump", "return", "plt-call", "exception-unwind", "code-write",
})
_OLD_CALL_KINDS = frozenset({"direct-call", "indirect-call", "plt-call"})
_OLD_TRANSFER_EVENT_KINDS = frozenset({
    "direct-call", "indirect-call", "direct-jump", "indirect-jump",
    "return", "plt-call",
})


def _old_event_from_obj(obj: dict, lineno: int) -> TraceEvent:
    def fail(msg: str):
        raise TraceError("malformed-trace", msg, line=lineno)

    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _OLD_EVENT_KINDS:
        fail(f"unknown event kind {kind!r}")
    seq = obj.get("seq")
    if type(seq) is not int or seq < 1:
        fail(f"bad seq {seq!r}")
    tid = obj.get("tid", 0)
    if type(tid) is not int or tid < 0:
        fail(f"bad tid {tid!r}")

    def addr_field(name: str, required: bool) -> int | None:
        raw = obj.get(name)
        if raw is None:
            if required:
                fail(f"{kind} event missing {name!r}")
            return None
        try:
            value = int(raw, 16) if isinstance(raw, str) else raw
        except ValueError:
            value = None
        if type(value) is not int or not 0 <= value < ADDRESS_LIMIT:
            fail(f"bad address {raw!r} in {name!r}")
        return value

    path = obj.get("path")
    if kind in ("load", "unload") and not isinstance(path, str):
        fail(f"{kind} event missing 'path'")
    base = addr_field("base", required=(kind == "load"))
    src = addr_field("src", required=kind in _OLD_TRANSFER_EVENT_KINDS)
    dst = addr_field("dst", required=kind in _OLD_TRANSFER_EVENT_KINDS)
    target = addr_field("target", required=(kind == "exception-unwind"))
    addr = addr_field("addr", required=False)
    length = obj.get("len")
    if (kind in _OLD_CALL_KINDS or length is not None) and not (
            type(length) is int and length > 0):
        fail(f"{kind} event needs a positive 'len', got {length!r}")
    return TraceEvent(seq=seq, tid=tid, kind=kind,
                      path=path if isinstance(path, str) else None,
                      base=base, src=src, dst=dst, length=length,
                      target=target, addr=addr)


def _validated(validate, obj: dict, lineno: int):
    try:
        return validate(obj, lineno)
    except TraceError as exc:
        return (exc.code, exc.message, exc.line)


def _assert_validators_agree(obj: dict, lineno: int) -> None:
    """Same event or same error; only a ``len`` above 15 newly fails."""
    old = _validated(_old_event_from_obj, obj, lineno)
    new = _validated(trace_mod._event_from_obj, obj, lineno)
    if isinstance(old, TraceEvent) and old.length is not None \
            and old.length > 15:
        assert new == ("malformed-trace",
                       f"{old.kind} event 'len' {old.length} exceeds the "
                       f"15-byte x86 instruction limit (line {lineno})",
                       lineno)
    else:
        assert new == old


@FUZZ
@given(mutated("trace.jsonl"))
def test_fuzz_event_validator_matches_the_old_one(data):
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return
    for lineno, line in enumerate(text.split("\n"), start=1):
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError):
            continue
        if isinstance(obj, dict):
            _assert_validators_agree(obj, lineno)


_BAD_ADDRESSES = ("zz", "0x100000000", -1, True, 1.5, [])
#: A valid value for every field, then the invalid ones; ``None`` stands
#: for an absent field.
GOOD_FIELDS = {"kind": "load", "seq": 1, "tid": 0, "path": "libfoo.so",
               "base": "0x1000", "src": 0x1004, "dst": "0x2000",
               "target": "0x3000", "addr": "0x4000", "len": 15}
BAD_FIELDS = {
    "kind": ("bogus", ["load"], None),
    "seq": (0, True, "1", None),
    "tid": (-1, False, "0"),
    "path": (5, ["a"], None),
    **{name: _BAD_ADDRESSES + (None,)
       for name in ("base", "src", "dst", "target", "addr")},
    "len": (0, True, 16, 10**30, "5", None),
}


def field_combinations():
    """Every kind with no, one and two invalid or absent fields."""
    names = list(GOOD_FIELDS)
    for kind in sorted(_OLD_EVENT_KINDS):
        good = dict(GOOD_FIELDS, kind=kind)
        yield good
        for i, first in enumerate(names):
            for bad in BAD_FIELDS[first]:
                yield dict(good, **{first: bad})
            for second in names[i + 1:]:
                for bad1 in BAD_FIELDS[first][:1] + BAD_FIELDS[first][-1:]:
                    for bad2 in BAD_FIELDS[second][:1] + BAD_FIELDS[second][-1:]:
                        yield dict(good, **{first: bad1, second: bad2})


def test_event_validator_matches_the_old_one_on_field_combinations():
    count = 0
    for obj in field_combinations():
        obj = {k: v for k, v in obj.items() if v is not None}
        _assert_validators_agree(obj, 1)
        count += 1
    assert count > 1000
