"""Trace engine: parsing, replay orchestration, reports, adversarial traces."""

import json
import struct
from collections import Counter
from dataclasses import replace

import pytest

import oracle
from strategies import (
    EXE_BASE,
    LIB_BASE,
    load_events,
    make_image,
    renumber,
    two_module_workspace,
)

from dyncfi import (
    FixtureSpec,
    MutationError,
    MutationSpec,
    ProcessError,
    ProcessImage,
    ReplayConfig,
    Replayer,
    SidecarError,
    SymbolSpec,
    TraceError,
    TraceEvent,
    derive_instruction_map,
    events_to_jsonl,
    generate_adversarial_trace,
    load_sidecar,
    parse_module,
    parse_trace,
    replay,
    sidecar_lines,
)
from dyncfi import trace as trace_mod
from elf_corpus import CORPUS_64, CORPUS_NONSTRIPPED_32

CALL = TraceEvent(seq=3, tid=0, kind="indirect-call",
                  src=EXE_BASE + 0x1004, dst=LIB_BASE + 0x1000, length=5)
RET = TraceEvent(seq=4, tid=0, kind="return",
                 src=LIB_BASE + 0x1004, dst=EXE_BASE + 0x1009)


def workspace_config():
    _specs, images, sidecar = two_module_workspace()
    return ReplayConfig(sidecar=sidecar), images


def clean_events():
    return load_events() + [CALL, RET]


# ---------------------------------------------------------------------------
# parse_trace
# ---------------------------------------------------------------------------

# JSON allows U+2028, U+2029 and U+0085 raw inside strings; they do not
# end a line.
@pytest.mark.parametrize("path", ["libfoo.so", "lib\u2028foo\u2029\u0085.so"],
                         ids=["plain", "raw-line-separators"])
def test_parse_load_event_line(path):
    events = parse_trace(
        '{"seq":1,"tid":0,"kind":"load","path":"' + path + '","base":"0x8048000"}')
    assert events == [TraceEvent(seq=1, tid=0, kind="load", path=path,
                                 base=0x8048000)]


def test_parse_rejects_decreasing_seq():
    lines = ('{"seq":1,"tid":0,"kind":"load","path":"a","base":"0x1000"}\n'
             '{"seq":1,"tid":0,"kind":"load","path":"b","base":"0x2000"}')
    with pytest.raises(TraceError) as exc:
        parse_trace(lines)
    assert exc.value.code == "malformed-trace" and exc.value.line == 2


def test_parse_rejects_seq_not_starting_at_one():
    with pytest.raises(TraceError):
        parse_trace('{"seq":5,"tid":0,"kind":"load","path":"a","base":"0x1000"}')


def test_parse_rejects_bad_json_and_missing_fields():
    with pytest.raises(TraceError) as exc:
        parse_trace("{nope")
    assert exc.value.line == 1
    with pytest.raises(TraceError):
        parse_trace('{"seq":1,"tid":0,"kind":"indirect-call","src":"0x1"}')
    with pytest.raises(TraceError):
        parse_trace('{"seq":1,"tid":0,"kind":"bogus"}')
    with pytest.raises(TraceError):
        # calls require an instruction length
        parse_trace('{"seq":1,"tid":0,"kind":"indirect-call",'
                    '"src":"0x1","dst":"0x2"}')


@pytest.mark.parametrize("line", [
    '{"seq":true,"kind":"load","path":"a","base":"0x1000"}',
    '{"seq":1,"tid":false,"kind":"load","path":"a","base":"0x1000"}',
    '{"seq":1,"kind":"indirect-call","src":"0x1","dst":"0x2","len":true}',
    '{"seq":1,"kind":"return","src":"0x1","dst":"0x2","len":0}',
    '{"seq":1,"kind":"load","path":"a","base":"-0x1000"}',
    '{"seq":1,"kind":"return","src":-5,"dst":"0x2"}',
    '{"seq":1,"kind":"return","src":281474976710656,"dst":"0x2"}',
    '{"seq":1,"kind":"return","src":"0x100000000","dst":"0x2"}',
    '{"seq":1,"kind":"return","src":true,"dst":"0x2"}',
    '{"seq":1,"kind":["load"]}',
    '{"seq":1' + "0" * 5000 + '}',
    "[" * 100000,
    b'{"seq":1,"kind":"code-write"}\xff',
    '{"seq":1,"kind":"indirect-call","src":"0x1","dst":"0x2","len":1'
    + "0" * 30 + '}',
], ids=["bool-seq", "bool-tid", "bool-len", "zero-len", "negative-base",
        "negative-src", "src-2^48", "src-2^32", "bool-src", "list-kind",
        "huge-int", "deep-nesting", "not-utf8", "len-10^30"])
def test_parse_rejects_nonsense_fields(line):
    with pytest.raises(TraceError) as exc:
        parse_trace(line)
    assert exc.value.code == "malformed-trace" and exc.value.line in (1, None)


def test_empty_input_replays_clean_with_no_metric():
    events = parse_trace("")
    assert events == []
    report = replay(events)
    assert report.clean and report.dair.n == 0
    assert report.to_dict()["dair"]["total"] is None


def test_jsonl_round_trip():
    events = clean_events()
    assert parse_trace(events_to_jsonl(events)) == events


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def test_clean_replay_two_allows():
    config, images = workspace_config()
    report = replay(clean_events(), config, images)
    assert report.clean
    assert report.to_dict()["summary"]["allows"] == 2
    assert report.kind_counts["indirect-call"] == 1
    assert report.dair.n == 2


def test_redirected_call_is_single_violation():
    config, images = workspace_config()
    events = load_events() + [
        TraceEvent(seq=3, tid=0, kind="indirect-call",
                   src=EXE_BASE + 0x1004, dst=LIB_BASE + 0x1040, length=5)]
    report = replay(events, config, images)
    assert not report.clean
    assert len(report.violations) == 1
    assert report.violations[0]["rule"] == "call-import"


def test_code_write_event_is_violation():
    config, images = workspace_config()
    events = load_events() + [
        TraceEvent(seq=3, tid=0, kind="code-write", addr=EXE_BASE + 0x1000)]
    report = replay(events, config, images)
    assert report.violations[0]["rule"] == "self-modifying-code"


def test_abort_on_violation_stops_replay():
    config, images = workspace_config()
    config.abort_on_violation = True
    events = load_events() + [
        TraceEvent(seq=3, tid=0, kind="code-write", addr=EXE_BASE + 0x1000),
        replace(CALL, seq=4),
    ]
    report = replay(events, config, images)
    assert report.aborted_at == 3
    assert report.events_processed == 3  # later events skipped


def test_unload_then_call_from_gone_module_is_structural_error():
    config, images = workspace_config()
    events = load_events() + [
        TraceEvent(seq=3, tid=0, kind="unload", path="libfoo.so"),
        TraceEvent(seq=4, tid=0, kind="indirect-call",
                   src=LIB_BASE + 0x1004, dst=EXE_BASE + 0x1000, length=5)]
    with pytest.raises(TraceError) as exc:
        replay(events, config, images)
    assert exc.value.code == "address-outside-modules"
    assert exc.value.seq == 4


def test_unload_revokes_import_binding():
    config, images = workspace_config()
    events = load_events() + [
        TraceEvent(seq=3, tid=0, kind="unload", path="libfoo.so"),
        TraceEvent(seq=4, tid=0, kind="load", path="libfoo.so",
                   base=0x50000000),
        TraceEvent(seq=5, tid=0, kind="indirect-call",
                   src=EXE_BASE + 0x1004, dst=LIB_BASE + 0x1000, length=5)]
    report = replay(events, config, images)
    # the old address is gone; a call there is denied
    assert not report.clean
    assert report.verdicts[-1][2].rule == "valid-instruction"


def test_exception_unwind_events():
    config, images = workspace_config()
    events = load_events() + [
        TraceEvent(seq=3, tid=0, kind="indirect-call",
                   src=EXE_BASE + 0x1004, dst=LIB_BASE + 0x1000, length=5),
        TraceEvent(seq=4, tid=0, kind="indirect-call",
                   src=LIB_BASE + 0x1004, dst=LIB_BASE + 0x1040, length=5),
        TraceEvent(seq=5, tid=0, kind="exception-unwind",
                   target=EXE_BASE + 0x1009),
        TraceEvent(seq=6, tid=0, kind="return", src=LIB_BASE + 0x1008,
                   dst=EXE_BASE + 0x1009)]
    report = replay(events, config, images)
    assert report.clean
    unwind = [v for _seq, kind, v in report.verdicts if kind == "exception-unwind"]
    assert unwind[0].decision == "allow" and "removed 1 frames" in unwind[0].reason


def test_memo_hits_share_the_memo_verdict():
    config, images = workspace_config()
    call = TraceEvent(seq=0, tid=0, kind="direct-call", src=EXE_BASE + 0x1004,
                      dst=LIB_BASE + 0x1000, length=5)
    events = renumber(load_events() + [
        call, call,
        TraceEvent(seq=0, tid=0, kind="load", path="libfoo.so", base=0x50000000),
        call])
    replayer = Replayer(config, images)
    report = replayer.replay(events)
    first, hit, after_load = (v for _seq, kind, v in report.verdicts
                              if kind == "direct-call")
    assert hit is first
    assert after_load is not first and after_load.allowed
    assert (replayer.cache.hits, replayer.cache.misses) == (1, 2)


def test_unwind_miss_is_distinct_violation():
    config, images = workspace_config()
    events = load_events() + [
        TraceEvent(seq=3, tid=0, kind="exception-unwind", target=0xBAD)]
    report = replay(events, config, images)
    assert report.violations[0]["rule"] == "unwind-miss"


def test_plt_call_resolved_and_unresolved():
    config, images = workspace_config()
    plt = EXE_BASE + 0x900
    ok = load_events() + [
        TraceEvent(seq=3, tid=0, kind="plt-call", src=EXE_BASE + 0x1004,
                   dst=plt, length=5)]
    report = replay(ok, config, images)
    assert report.clean
    assert report.verdicts[-1][2].rule == "plt-direct"

    unresolved = [load_events()[0]] + [
        TraceEvent(seq=2, tid=0, kind="plt-call", src=EXE_BASE + 0x1004,
                   dst=plt, length=5)]
    report2 = replay(unresolved, config, images)
    assert not report2.clean
    assert report2.verdicts[-1][2].rule == "plt-direct"
    assert "unresolved" in report2.verdicts[-1][2].reason.lower() or \
        "no loaded exporter" in report2.verdicts[-1][2].reason


def test_plt_call_bound_to_a_data_export_is_denied():
    """The first-loaded exporter of a PLT stub's name exports it as a data
    object: the stub binds to that address, and the call through it is
    denied as a call to no instruction, with the call's own target set."""
    config, images = workspace_config()
    data_base = 0x50000000
    modules = {"libdata.so": make_image(FixtureSpec(
        path="libdata.so", code=b"\x90" * 0x40, data=b"\x00" * 8,
        symbols=(SymbolSpec("foo", 0x3000, 4, kind="object"),))), **images}
    events = renumber([
        TraceEvent(seq=0, tid=0, kind="load", path="libdata.so", base=data_base),
        *load_events(),
        TraceEvent(seq=0, tid=0, kind="plt-call", src=EXE_BASE + 0x1004,
                   dst=EXE_BASE + 0x900, length=5)])
    replayer = Replayer(config, modules)
    report = replayer.replay(events)
    seq, kind, v = report.verdicts[-1]
    assert (seq, kind, v.decision, v.rule) == (4, "plt-call", "deny",
                                               "valid-instruction")
    assert v.reason == f"call target {hex(data_base + 0x3000)} is outside loaded modules"
    p = replayer.process
    assert v.target_set_size == len(p.call_target_set(f"app@{EXE_BASE:#x}"))
    assert p.plt_resolutions == {(f"app@{EXE_BASE:#x}", EXE_BASE + 0x900):
                                 data_base + 0x3000}


def test_reload_at_same_base_readmits_each_finding_once():
    """load -> unload -> reload of one plugin at one base: the reload's
    scan finds what the first load found, and unloading dropped all of it,
    so no finding is held twice and the table equals a rebuild."""
    config, images = workspace_config()
    base = 0x50000000
    plugin = make_image(FixtureSpec(
        path="libcb.so", code=b"\x68" + struct.pack("<I", base + 0x1010)
        + b"\x90" * 0x3B,
        data=struct.pack("<II", EXE_BASE + 0x1000, LIB_BASE + 0x1040),
        symbols=(SymbolSpec("cb_user", 0x1000, 0x10),
                 SymbolSpec("cb", 0x1010, 0x10))))
    load = TraceEvent(seq=0, tid=0, kind="load", path="libcb.so", base=base)
    call = TraceEvent(seq=0, tid=0, kind="indirect-call", src=EXE_BASE + 0x1004,
                      dst=base + 0x1010, length=5)
    unload = TraceEvent(seq=0, tid=0, kind="unload", path="libcb.so", base=base)
    first = renumber(load_events() + [load, call])
    replayer = Replayer(config, {"libcb.so": plugin, **images})
    assert replayer.replay(first).clean
    found = list(replayer.process.callback_findings)
    assert {(f.address, f.pattern) for f in found} >= {
        (base + 0x1010, "push-imm32"), (EXE_BASE + 0x1000, "data-scan"),
        (LIB_BASE + 0x1040, "data-scan")}

    replayer = Replayer(config, {"libcb.so": plugin, **images})
    report = replayer.replay(renumber(first + [unload, load, call]))
    assert report.clean
    assert [e["action"] for e in report.epochs].count("callback-scan") == 2
    p = replayer.process
    keys = [(f.address, f.pattern, f.source_module) for f in p.callback_findings]
    assert len(keys) == len(set(keys))
    assert p.callback_findings == found
    assert p.table == p.rebuild_table()


def test_plt_call_to_non_plt_address_is_structural_error():
    config, images = workspace_config()
    events = load_events() + [
        TraceEvent(seq=3, tid=0, kind="plt-call", src=EXE_BASE + 0x1004,
                   dst=EXE_BASE + 0x1000, length=5)]
    with pytest.raises(TraceError):
        replay(events, config, images)


@pytest.mark.parametrize("dst_off", [0x1000, 0x902],
                         ids=["function-entry", "inside-plt-stub"])
def test_plt_call_off_every_plt_entry_names_code_and_seq(dst_off):
    """A plt-call to an address of its source module that starts no PLT
    entry is a malformed trace, reported at that event, also after a good
    plt-call from the same source."""
    config, images = workspace_config()
    events = load_events() + [
        TraceEvent(seq=3, tid=0, kind="plt-call", src=EXE_BASE + 0x1004,
                   dst=EXE_BASE + 0x900, length=5),
        TraceEvent(seq=4, tid=0, kind="return", src=LIB_BASE + 0x1004,
                   dst=EXE_BASE + 0x1009),
        TraceEvent(seq=5, tid=0, kind="plt-call", src=EXE_BASE + 0x1004,
                   dst=EXE_BASE + dst_off, length=5)]
    with pytest.raises(TraceError) as exc:
        replay(events, config, images)
    assert exc.value.code == "address-outside-modules"
    assert exc.value.seq == 5
    assert exc.value.message.startswith(
        f"{hex(EXE_BASE + dst_off)} is not a PLT entry of app@{EXE_BASE:#x}")


def test_plt_call_through_self_interposable_stub():
    # gcc -fPIC routes corpus_weak's call to its own export corpus_add
    # through corpus_add@plt; first-loaded-exporter resolution lands on
    # the module's own definition.
    img = parse_module(open(CORPUS_NONSTRIPPED_32, "rb").read(), "libcorpus32.so")
    base = 0x10000000
    events = [
        TraceEvent(seq=1, tid=0, kind="load", path="libcorpus32.so", base=base),
        TraceEvent(seq=2, tid=0, kind="plt-call",
                   src=base + img.export_value("corpus_weak"),
                   dst=base + 0x1010, length=5)]
    report = replay(events, modules={"libcorpus32.so": img})
    assert report.clean
    assert report.verdicts[-1][2].rule == "plt-direct"
    assert hex(base + img.export_value("corpus_add")) in report.verdicts[-1][2].reason


def test_plt_call_through_interposed_self_export():
    # An earlier-loaded module exporting corpus_add interposes on the
    # corpus's own definition: corpus_add@plt resolves to it, and the
    # stub's symbol grants that address like an import would.
    corpus = parse_module(open(CORPUS_NONSTRIPPED_32, "rb").read(),
                          "libcorpus32.so")
    interp = make_image(FixtureSpec(
        path="interp.so", code=b"\x90" * 0x40,
        symbols=(SymbolSpec("corpus_add", 0x1000, 0x10),)))
    modules = {"interp.so": interp, "libcorpus32.so": corpus}
    bases = {"interp.so": 0x20000000, "libcorpus32.so": 0x30000000}
    events = [
        TraceEvent(seq=1, tid=0, kind="load", path="interp.so",
                   base=bases["interp.so"]),
        TraceEvent(seq=2, tid=0, kind="load", path="libcorpus32.so",
                   base=bases["libcorpus32.so"]),
        TraceEvent(seq=3, tid=0, kind="plt-call",
                   src=0x30000000 + corpus.export_value("corpus_weak"),
                   dst=0x30000000 + 0x1010, length=5)]
    report = replay(events, modules=modules)
    assert report.clean
    assert report.verdicts[-1][2].rule == "plt-direct"
    assert "0x20001000" in report.verdicts[-1][2].reason
    for order in (["interp.so", "libcorpus32.so"], ["libcorpus32.so", "interp.so"]):
        p = ProcessImage()
        for path in order:
            img = modules[path]
            p.load_module(img, bases[path], derive_instruction_map(img))
        assert p.table == p.rebuild_table(), order


# ---------------------------------------------------------------------------
# instruction maps: owned by the sidecar or by the image, looked up per load
# ---------------------------------------------------------------------------

def counted_derivations(monkeypatch) -> Counter:
    """Count trace.derive_instruction_map calls per (image, sidecar)."""
    calls: Counter = Counter()
    derive = trace_mod.derive_instruction_map

    def counting(img, sidecar=None):
        calls[(id(img), id(sidecar))] += 1
        return derive(img, sidecar)

    monkeypatch.setattr(trace_mod, "derive_instruction_map", counting)
    return calls


RELOAD = [TraceEvent(seq=5, tid=0, kind="unload", path="libfoo.so"),
          TraceEvent(seq=6, tid=0, kind="load", path="libfoo.so", base=LIB_BASE)]


def test_loaded_module_holds_the_sidecar_map_across_replayers(monkeypatch):
    calls = counted_derivations(monkeypatch)
    config, images = workspace_config()
    replayers = [Replayer(config, images) for _ in range(2)]
    reports = [r.replay(clean_events() + RELOAD) for r in replayers]
    assert reports[0].to_json() == reports[1].to_json()
    assert reports[0].clean
    # One lookup per load (three per replay), each adopting the sidecar's
    # own map for the path: reloads and Replayers share one object.
    assert sorted(calls.values()) == [2, 4]
    assert set(calls) == {(id(img), id(config.sidecar)) for img in images.values()}
    for r in replayers:
        for lm in r.process.loaded.values():
            assert lm.imap is config.sidecar[lm.path]


def test_second_sidecar_gets_its_own_instruction_map():
    specs, images, sidecar = two_module_workspace()
    entries_only = load_sidecar("\n".join(
        f"{s.path} {sym.value:#x}" for s in specs.values() for sym in s.symbols))
    first = Replayer(ReplayConfig(sidecar=sidecar), images)
    first.replay(load_events())
    second = Replayer(ReplayConfig(sidecar=entries_only), images)
    second.replay(load_events())
    for path in images:
        assert first.process.by_path(path).imap is sidecar[path]
        assert second.process.by_path(path).imap is entries_only[path]
        assert sidecar[path].offsets != entries_only[path].offsets


def test_stripped_twin_gets_its_own_instruction_map():
    _specs, images, _sidecar = two_module_workspace()
    lib = images["libfoo.so"]
    full = Replayer(modules=images)
    full.replay(load_events())
    twin = lib.stripped_twin()
    stripped = Replayer(modules=dict(images, **{"libfoo.so": twin}))
    stripped.replay(load_events())
    # Without a sidecar each image's own symbol map is adopted, and the
    # twin, a separate image, knows only its exported entries.
    assert full.process.by_path("libfoo.so").imap is lib.symbol_instruction_map
    assert stripped.process.by_path("libfoo.so").imap is \
        twin.symbol_instruction_map
    assert lib.symbol_instruction_map.offsets == (0x1000, 0x1040, 0x1080, 0x10a0)
    assert twin.symbol_instruction_map.offsets == (0x1000, 0x1040)


def test_bad_sidecar_offset_fails_every_load(monkeypatch):
    calls = counted_derivations(monkeypatch)
    specs, images, _sidecar = two_module_workspace()
    bad = load_sidecar("\n".join(sidecar_lines(specs["app"])
                                 + ["libfoo.so 0x1000", "libfoo.so 0x9000"]))
    for _ in range(2):
        with pytest.raises(SidecarError) as exc:
            Replayer(ReplayConfig(sidecar=bad), images).replay(load_events())
        assert (exc.value.code, exc.value.message) == (
            "sidecar-module-mismatch",
            "libfoo.so: offset 0x9000 outside executable ranges")
    assert calls[(id(images["libfoo.so"]), id(bad))] == 2


def test_elf64_image_passed_in_is_refused_at_load():
    """Replay maps ELF32 images only, however the image was parsed."""
    img = parse_module(open(CORPUS_64, "rb").read(), "libcorpus64.so")
    replayer = Replayer(modules={"libcorpus64.so": img})
    with pytest.raises(ProcessError) as exc:
        replayer.replay([TraceEvent(seq=1, tid=0, kind="load",
                                    path="libcorpus64.so", base=0x10000000)])
    assert (exc.value.code, exc.value.message) == (
        "unsupported-class",
        "libcorpus64.so: not an ELF32 image; replay maps 32-bit modules only")
    assert not replayer.process.loaded


def test_direct_transfers_excluded_from_metric():
    config, images = workspace_config()
    events = load_events() + [
        TraceEvent(seq=3, tid=0, kind="direct-call", src=EXE_BASE + 0x1004,
                   dst=LIB_BASE + 0x1000, length=5),
        TraceEvent(seq=4, tid=0, kind="direct-call", src=EXE_BASE + 0x1004,
                   dst=LIB_BASE + 0x1000, length=5),
        TraceEvent(seq=5, tid=0, kind="direct-jump", src=EXE_BASE + 0x1008,
                   dst=EXE_BASE + 0x1010),
        TraceEvent(seq=6, tid=0, kind="return", src=LIB_BASE + 0x1004,
                   dst=EXE_BASE + 0x1009),
        TraceEvent(seq=7, tid=0, kind="return", src=LIB_BASE + 0x1004,
                   dst=EXE_BASE + 0x1009)]
    report = replay(events, config, images)
    assert report.clean
    assert report.dair.n == 2  # only the two returns
    assert {r.kind for r in report.dair.records} == {"return"}


def test_multithreaded_traces_get_independent_shadow_stacks():
    config, images = workspace_config()
    events = load_events() + [
        TraceEvent(seq=3, tid=1, kind="indirect-call", src=EXE_BASE + 0x1004,
                   dst=LIB_BASE + 0x1000, length=5),
        TraceEvent(seq=4, tid=2, kind="indirect-call", src=EXE_BASE + 0x1008,
                   dst=LIB_BASE + 0x1000, length=3),
        TraceEvent(seq=5, tid=2, kind="return", src=LIB_BASE + 0x1004,
                   dst=EXE_BASE + 0x100b),
        TraceEvent(seq=6, tid=1, kind="return", src=LIB_BASE + 0x1004,
                   dst=EXE_BASE + 0x1009)]
    report = replay(events, config, images)
    assert report.clean


def test_replay_determinism_byte_identical_reports():
    config, images = workspace_config()
    r1 = replay(clean_events(), config, images).to_json()
    _specs2, images2, sidecar2 = two_module_workspace()
    r2 = replay(clean_events(), ReplayConfig(sidecar=sidecar2), images2).to_json()
    assert r1 == r2


def test_prefix_consistency():
    config, images = workspace_config()
    events = clean_events()
    full = replay(events, config, images)
    for cut in range(len(events) + 1):
        _specs, images2, sidecar2 = two_module_workspace()
        part = replay(events[:cut], ReplayConfig(sidecar=sidecar2), images2)
        assert part.verdicts == full.verdicts[:len(part.verdicts)]
        assert [row[0] for row in full.verdicts[:len(part.verdicts)]] == \
            [row[0] for row in part.verdicts]


def test_report_schema():
    config, images = workspace_config()
    doc = json.loads(replay(clean_events(), config, images).to_json())
    assert set(doc) == {"summary", "violations", "dair", "epochs"}
    assert isinstance(doc["violations"], list)
    assert {"total", "per_kind", "series", "n"} <= set(doc["dair"])
    assert {"events", "per_kind", "allows", "denies", "outcome",
            "verdicts"} <= set(doc["summary"])
    outcome = doc["summary"]["outcome"]
    assert set(outcome) == {"clean", "violations", "aborted_at"}
    assert outcome["violations"] == doc["summary"]["denies"] == \
        len(doc["violations"])
    for entry in doc["epochs"]:
        assert {"seq", "epoch", "action", "path", "modules"} <= set(entry)


def test_dair_total_matches_independent_recomputation():
    config, images = workspace_config()
    report = replay(clean_events(), config, images)
    assert abs(report.dair.finalize()["total"] -
               float(oracle.recompute_dair(report.dair.records))) < 1e-12


# ---------------------------------------------------------------------------
# Adversarial generation
# ---------------------------------------------------------------------------

def multi_kind_base() -> list[TraceEvent]:
    return renumber(load_events() + [
        TraceEvent(seq=0, tid=0, kind="indirect-call", src=EXE_BASE + 0x1004,
                   dst=LIB_BASE + 0x1000, length=5),
        TraceEvent(seq=0, tid=0, kind="indirect-jump", src=LIB_BASE + 0x1004,
                   dst=LIB_BASE + 0x100c),
        TraceEvent(seq=0, tid=0, kind="return", src=LIB_BASE + 0x1008,
                   dst=EXE_BASE + 0x1009),
        TraceEvent(seq=0, tid=0, kind="indirect-jump", src=EXE_BASE + 0x1008,
                   dst=EXE_BASE + 0x1010),
    ])


MATRIX = [
    ("ret", "deny", "return-shadow-match"),
    ("call", "deny", "call-import"),
    ("jump", "deny", "valid-instruction"),
    ("jump-cross", "deny", "jump-tail-call"),
    ("tailcall", "allow", "jump-tail-call"),
]


@pytest.mark.parametrize("klass,decision,rule", MATRIX)
def test_mutation_matrix(klass, decision, rule):
    config, images = workspace_config()
    base = multi_kind_base()
    mutated = generate_adversarial_trace(base, MutationSpec(klass),
                                         config, images)
    report = replay(mutated, config, images)
    changed = [i for i, (a, b) in enumerate(zip(base, mutated)) if a != b]
    assert len(changed) == 1
    seq = mutated[changed[0]].seq
    verdict = next(v for row_seq, _kind, v in report.verdicts if row_seq == seq)
    assert (verdict.decision, verdict.rule) == (decision, rule)
    if decision == "deny":
        # no cross-talk: the mutation's event is the only violation
        assert [v["seq"] for v in report.violations] == [seq]
    else:
        assert report.clean


def test_mutation_skips_an_unmutable_candidate_without_replaying_again(
        monkeypatch):
    config, images = workspace_config()
    base = multi_kind_base()
    # The first indirect jump sits in libfoo.so, which imports nothing, so
    # it has no tail-call target; the second sits in app, which imports foo.
    jumps = [i for i, e in enumerate(base) if e.kind == "indirect-jump"]
    applied: dict[int, int] = {}
    apply = Replayer._apply

    def counting_apply(self, event, report):
        applied[event.seq] = applied.get(event.seq, 0) + 1
        return apply(self, event, report)

    monkeypatch.setattr(Replayer, "_apply", counting_apply)
    mutated = generate_adversarial_trace(base, MutationSpec("tailcall"),
                                         config, images)
    assert mutated[jumps[0]] == base[jumps[0]]
    assert mutated[jumps[1]] == replace(base[jumps[1]], dst=LIB_BASE + 0x1000)
    assert max(applied.values()) <= 2


def test_mutation_requires_clean_base():
    config, images = workspace_config()
    bad = load_events() + [
        TraceEvent(seq=3, tid=0, kind="indirect-call", src=EXE_BASE + 0x1004,
                   dst=LIB_BASE + 0x1040, length=5)]
    with pytest.raises(MutationError):
        generate_adversarial_trace(bad, MutationSpec("ret"), config, images)


@pytest.mark.parametrize("klass,kind", [
    ("ret", "return"), ("call", "indirect-call"), ("jump", "indirect-jump")])
def test_mutation_base_replay_rejects_an_unmapped_source(klass, kind):
    """A transfer from outside every module ends the base replay, so the
    mutation loop only ever sees candidates whose source is mapped."""
    config, images = workspace_config()
    stray = TraceEvent(seq=3, tid=0, kind=kind, src=0x7000,
                       dst=LIB_BASE + 0x1000,
                       length=5 if kind == "indirect-call" else None)
    with pytest.raises(TraceError) as exc:
        generate_adversarial_trace(load_events() + [stray],
                                   MutationSpec(klass), config, images)
    assert (exc.value.code, exc.value.seq) == ("address-outside-modules", 3)


def test_mutation_without_eligible_event_errors():
    config, images = workspace_config()
    with pytest.raises(MutationError) as exc:
        generate_adversarial_trace(load_events(), MutationSpec("ret"),
                                   config, images)
    assert exc.value.code == "mutation-out-of-range"


def test_mutation_unknown_class_errors():
    config, images = workspace_config()
    with pytest.raises(MutationError):
        generate_adversarial_trace(clean_events(), MutationSpec("nope"),
                                   config, images)


def test_mutation_pins_specific_event():
    config, images = workspace_config()
    base = renumber(load_events() + [
        TraceEvent(seq=0, tid=0, kind="indirect-call", src=EXE_BASE + 0x1004,
                   dst=LIB_BASE + 0x1000, length=5),
        TraceEvent(seq=0, tid=0, kind="return", src=LIB_BASE + 0x1004,
                   dst=EXE_BASE + 0x1009),
        TraceEvent(seq=0, tid=0, kind="indirect-call", src=EXE_BASE + 0x1008,
                   dst=LIB_BASE + 0x1000, length=3),
        TraceEvent(seq=0, tid=0, kind="return", src=LIB_BASE + 0x1004,
                   dst=EXE_BASE + 0x100b),
    ])
    mutated = generate_adversarial_trace(base, MutationSpec("ret", event_seq=6),
                                         config, images)
    assert mutated[5] != base[5]
    assert mutated[:5] == base[:5]
