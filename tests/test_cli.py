"""Command-line interface: subcommands, exit codes, report files."""

import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from dyncfi.cli import _load_allowlist, main
from dyncfi.elf import FixtureSpec, SymbolSpec, build_fixture
from elf_corpus import CORPUS_DIR

SPEC_JSON = {
    "modules": [
        {"path": "app", "code_size": 256,
         "symbols": [{"name": "main", "value": "0x1000", "size": 64}],
         "imports": ["foo"], "plt": ["foo"],
         "instruction_offsets": ["0x1004", "0x1008"]},
        {"path": "libfoo.so", "code_size": 512,
         "symbols": [
             {"name": "foo", "value": "0x1000", "size": 48},
             {"name": "bar", "value": "0x1040", "size": 32},
             {"name": "helper", "value": "0x1080", "size": 24,
              "binding": "local", "exported": False}],
         "instruction_offsets": ["0x1004", "0x1044", "0x1084"]},
    ]
}

TRACE = """\
{"seq":1,"tid":0,"kind":"load","path":"app","base":"0x8048000"}
{"seq":2,"tid":0,"kind":"load","path":"libfoo.so","base":"0x40000000"}
{"seq":3,"tid":0,"kind":"indirect-call","src":"0x8049004","dst":"0x40001000","len":5}
{"seq":4,"tid":0,"kind":"indirect-call","src":"0x40001004","dst":"0x40001080","len":5}
{"seq":5,"tid":0,"kind":"return","src":"0x40001084","dst":"0x40001009"}
{"seq":6,"tid":0,"kind":"return","src":"0x40001008","dst":"0x8049009"}
"""


@pytest.fixture()
def workspace(tmp_path: Path) -> Path:
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(SPEC_JSON))
    assert main(["fixture", "--spec", str(spec_file),
                 "-o", str(tmp_path / "mods")]) == 0
    (tmp_path / "trace.jsonl").write_text(TRACE)
    return tmp_path


def run_check(ws: Path, trace: str, *extra: str) -> int:
    return main(["check", "--trace", str(ws / trace),
                 "--sidecar", str(ws / "mods" / "boundaries.sidecar"),
                 "--module-root", str(ws / "mods"),
                 "-o", str(ws / "report.json"), *extra])


def test_fixture_command_emits_parseable_modules(workspace: Path):
    mods = workspace / "mods"
    assert (mods / "app").exists()
    assert (mods / "libfoo.so").exists()
    assert (mods / "boundaries.sidecar").exists()
    assert main(["analyze", str(mods / "libfoo.so")]) == 0


def test_analyze_reports_locals_and_stripped(workspace: Path, capsys):
    mods = workspace / "mods"
    assert main(["analyze", str(mods / "libfoo.so")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stripped"] is False
    assert doc["locals"] == ["helper"]
    assert doc["exports"] == ["foo", "bar"]


@pytest.mark.parametrize("args,digest", [
    (["libcorpus32.so"],
     "5641b2ca716573e7015e0c93c17c2a585f51ddca1cc01df7950f102634cc345a"),
    (["libcorpus32-stripped.so"],
     "5b81ff31c44fd3ee25c68a2f351c8da6a287edd85748b10c0106ff012829ee6b"),
    (["libcorpus64.so"],
     "88bed358ebabc0af5b270dedd0b5f3dfcfd251b055befec903303ae15c060ada"),
], ids=["corpus32", "corpus32-stripped", "corpus64"])
def test_analyze_corpus_output_is_pinned(monkeypatch, capsys, args, digest):
    """The inventory of each toolchain-built object, byte for byte: the
    paths are relative to the corpus directory, so the output is too."""
    monkeypatch.chdir(CORPUS_DIR)
    assert main(["analyze", *args]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_analyze_missing_path_exits_2(capsys):
    assert main(["analyze", "/no/such/file.so"]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_clean_trace_exit_0(workspace: Path):
    assert run_check(workspace, "trace.jsonl") == 0
    doc = json.loads((workspace / "report.json").read_text())
    assert set(doc) == {"summary", "violations", "dair", "epochs"}
    assert doc["summary"]["outcome"]["clean"] is True


def test_check_adversarial_trace_exit_1(workspace: Path):
    assert main(["mutate", "--trace", str(workspace / "trace.jsonl"),
                 "--class", "ret",
                 "--sidecar", str(workspace / "mods" / "boundaries.sidecar"),
                 "--module-root", str(workspace / "mods"),
                 "-o", str(workspace / "bad.jsonl")]) == 0
    assert run_check(workspace, "bad.jsonl") == 1
    doc = json.loads((workspace / "report.json").read_text())
    assert doc["violations"][0]["rule"] == "return-shadow-match"


def test_check_truncated_trace_exit_2(workspace: Path):
    (workspace / "broken.jsonl").write_text(TRACE[: len(TRACE) // 2])
    assert run_check(workspace, "broken.jsonl") == 2


def test_check_load_past_address_space_exits_2(tmp_path: Path, capsys):
    spec = FixtureSpec(path="libhigh.so", code=b"\x90" * 0x40,
                       symbols=(SymbolSpec("hi_fn", 0x1000, 0x20),))
    (tmp_path / "libhigh.so").write_bytes(build_fixture(spec))
    (tmp_path / "high.jsonl").write_text(
        '{"seq":1,"tid":0,"kind":"load","path":"libhigh.so","base":"0xfffff000"}\n')
    assert main(["check", "--trace", str(tmp_path / "high.jsonl"),
                 "-o", str(tmp_path / "report.json")]) == 2
    assert "error: base-out-of-range" in capsys.readouterr().err


def test_check_missing_trace_exit_2(workspace: Path, capsys):
    assert run_check(workspace, "nope.jsonl") == 2
    assert "error:" in capsys.readouterr().err


def test_check_abort_flag(workspace: Path):
    assert main(["mutate", "--trace", str(workspace / "trace.jsonl"),
                 "--class", "call",
                 "--sidecar", str(workspace / "mods" / "boundaries.sidecar"),
                 "--module-root", str(workspace / "mods"),
                 "-o", str(workspace / "bad2.jsonl")]) == 0
    assert run_check(workspace, "bad2.jsonl", "--abort") == 1
    doc = json.loads((workspace / "report.json").read_text())
    assert doc["summary"]["outcome"]["aborted_at"] is not None


def test_dair_command_writes_report_and_csv(workspace: Path, capsys):
    assert main(["dair", "--trace", str(workspace / "trace.jsonl"),
                 "--sidecar", str(workspace / "mods" / "boundaries.sidecar"),
                 "--module-root", str(workspace / "mods"),
                 "--csv", str(workspace / "series.csv"),
                 "-o", str(workspace / "dair.json")]) == 0
    out = capsys.readouterr().out
    assert "DAIR total" in out
    doc = json.loads((workspace / "dair.json").read_text())
    assert doc["dair"]["n"] == 4
    # hand-computed from the known composition: S = exec bytes =
    # app(text 0x100 + plt 0x10) + lib(text 0x200) = 0x310; the exe call
    # may reach {main, foo} (|T|=2), the lib-internal call {foo, bar,
    # helper} (|T|=3), each return exactly 1.
    s = 0x310
    expected = ((1 - 2 / s) + (1 - 3 / s) + (1 - 1 / s) + (1 - 1 / s)) / 4
    assert doc["dair"]["total"] == pytest.approx(expected, abs=1e-12)
    csv_lines = (workspace / "series.csv").read_text().splitlines()
    assert csv_lines[0] == "seq,dair_total,dair_call,dair_jump,dair_ret"
    assert len(csv_lines) == 1 + 4


def test_check_dump_image_snapshot(workspace: Path):
    assert main(["check", "--trace", str(workspace / "trace.jsonl"),
                 "--sidecar", str(workspace / "mods" / "boundaries.sidecar"),
                 "--module-root", str(workspace / "mods"),
                 "--dump-image", str(workspace / "image.json"),
                 "-o", str(workspace / "report.json")]) == 0
    snap = json.loads((workspace / "image.json").read_text())
    assert {"epoch", "modules", "callback_set", "plt_resolutions",
            "table_targets"} <= set(snap)
    assert [m["path"] for m in snap["modules"]] == ["app", "libfoo.so"]
    assert snap["modules"][0]["imports"] == {"foo": snap["modules"][1]["module_id"]}


def test_check_dump_image_after_plt_call(workspace: Path):
    (workspace / "plt.jsonl").write_text("\n".join(TRACE.splitlines()[:2]) + """
{"seq":3,"tid":0,"kind":"plt-call","src":"0x8049004","dst":"0x8048900","len":5}
""")
    assert main(["check", "--trace", str(workspace / "plt.jsonl"),
                 "--sidecar", str(workspace / "mods" / "boundaries.sidecar"),
                 "--module-root", str(workspace / "mods"),
                 "--dump-image", str(workspace / "image.json"),
                 "-o", str(workspace / "report.json")]) == 0
    snap = json.loads((workspace / "image.json").read_text())
    # app's foo@plt resolved to libfoo.so's foo (0x40000000 + 0x1000).
    assert snap["plt_resolutions"] == {"app@0x8048000+0x8048900": "0x40001000"}


def test_dair_stripped_twin_ordering(workspace: Path, capsys):
    assert main(["dair", "--trace", str(workspace / "trace.jsonl"),
                 "--sidecar", str(workspace / "mods" / "boundaries.sidecar"),
                 "--module-root", str(workspace / "mods"),
                 "--stripped-twin",
                 "-o", str(workspace / "dair.json")]) == 0
    out = capsys.readouterr().out
    assert "full >= stripped" in out
    doc = json.loads((workspace / "dair.json").read_text())
    assert doc["dair"]["total"] >= doc["stripped_twin"]["total"]


def test_dair_empty_trace_notice_exit_0(workspace: Path, capsys):
    (workspace / "empty.jsonl").write_text("")
    assert main(["dair", "--trace", str(workspace / "empty.jsonl"),
                 "--module-root", str(workspace / "mods"),
                 "-o", str(workspace / "dair.json")]) == 0
    assert "no indirect transfers" in capsys.readouterr().out


def test_allowlist_flag(workspace: Path):
    # exe calling non-imported 'bar' is a violation without the allowlist
    bad = TRACE + '{"seq":7,"tid":0,"kind":"indirect-call","src":"0x8049004","dst":"0x40001040","len":5}\n'
    (workspace / "t2.jsonl").write_text(bad)
    assert run_check(workspace, "t2.jsonl") == 1
    (workspace / "allow.txt").write_text("app bar\n")
    assert run_check(workspace, "t2.jsonl",
                     "--allowlist", str(workspace / "allow.txt")) == 0


# Only "\n" ends an allowlist line, and the symbol is the last field, so a
# module key may hold U+2028 and friends.
@pytest.mark.parametrize("module", ["app", "lib\u2028app\u2029\u0085.so"],
                         ids=["plain", "raw-line-separators"])
def test_allowlist_module_line_separators(tmp_path: Path, module):
    (tmp_path / "allow.txt").write_text(f"# grants\n{module} bar\n",
                                        encoding="utf-8")
    assert _load_allowlist(str(tmp_path / "allow.txt")) == {(module, "bar")}


def test_mutate_without_eligible_event_exit_2(workspace: Path):
    (workspace / "loads.jsonl").write_text(TRACE.splitlines()[0] + "\n")
    assert main(["mutate", "--trace", str(workspace / "loads.jsonl"),
                 "--class", "ret",
                 "--module-root", str(workspace / "mods"),
                 "-o", str(workspace / "x.jsonl")]) == 2


def test_fixture_accepts_single_module_spec(tmp_path: Path):
    single = dict(SPEC_JSON["modules"][1])
    (tmp_path / "one.json").write_text(json.dumps(single))
    assert main(["fixture", "--spec", str(tmp_path / "one.json"),
                 "-o", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "libfoo.so").exists()
    assert (tmp_path / "out" / "boundaries.sidecar").exists()


def test_fixture_rejects_bad_json(tmp_path: Path, capsys):
    (tmp_path / "bad.json").write_text("{nope")
    assert main(["fixture", "--spec", str(tmp_path / "bad.json"),
                 "-o", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("spec", [
    [1, 2],
    {"modules": 5},
    {"modules": [{"code_size": 16}]},
    {"path": "a", "code": "zz"},
    {"path": "a", "code_size": 16, "symbols": [{"name": 7, "value": "0x1000"}]},
], ids=["list", "modules-int", "no-path", "bad-hex", "int-name"])
def test_fixture_rejects_bad_spec_shape(tmp_path: Path, capsys, spec):
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    assert main(["fixture", "--spec", str(tmp_path / "spec.json"),
                 "-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: malformed-spec")


@pytest.mark.parametrize("which", ["trace", "sidecar", "allowlist"])
def test_check_non_utf8_input_exits_2(workspace: Path, capsys, which):
    bad = workspace / "bad.bin"
    bad.write_bytes(b"\xff\xfe not utf-8\n")
    trace = "bad.bin" if which == "trace" else "trace.jsonl"
    # a repeated --sidecar overrides run_check's own: argparse keeps the last
    extra = () if which == "trace" else (f"--{which}", str(bad))
    assert run_check(workspace, trace, *extra) == 2
    assert "error: malformed-input" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Coded errors: each ends the command with exit 2 and one stderr line
# ---------------------------------------------------------------------------

LOAD_APP = '{"seq":1,"tid":0,"kind":"load","path":"app","base":"0x8048000"}\n'


def exits_2_with(capsys, argv: list[str], message: str) -> None:
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_check_missing_sidecar_file(workspace: Path, capsys):
    gone = workspace / "gone.sidecar"
    exits_2_with(capsys, ["check", "--trace", str(workspace / "trace.jsonl"),
                          "--sidecar", str(gone), "-o", str(workspace / "r.json")],
                 f"missing-file: sidecar file not found: {gone}")


def test_check_missing_allowlist_file(workspace: Path, capsys):
    gone = workspace / "gone.allow"
    exits_2_with(capsys, ["check", "--trace", str(workspace / "trace.jsonl"),
                          "--allowlist", str(gone), "-o", str(workspace / "r.json")],
                 f"missing-file: allowlist file not found: {gone}")


def test_fixture_missing_spec_file(tmp_path: Path, capsys):
    gone = tmp_path / "gone.json"
    exits_2_with(capsys, ["fixture", "--spec", str(gone), "-o", str(tmp_path)],
                 f"missing-file: spec file not found: {gone}")


def test_check_unwritable_report_path(workspace: Path, capsys):
    out = workspace / "no-such-dir" / "report.json"
    assert run_check(workspace, "trace.jsonl", "-o", str(out)) == 2
    err = FileNotFoundError(2, os.strerror(2), str(out))
    assert capsys.readouterr().err == f"error: {err}\n"


def test_analyze_truncated_elf64_header(tmp_path: Path, capsys):
    short = tmp_path / "short64.so"
    short.write_bytes(b"\x7fELF\x02\x01\x01".ljust(32, b"\x00"))
    exits_2_with(capsys, ["analyze", str(short)],
                 f"malformed-header: {short}: truncated ELF64 header")


def test_analyze_overlapping_executable_sections(workspace: Path, capsys):
    # The app fixture with its .plt (at 0x900) moved onto .text (0x1000).
    data = bytearray((workspace / "mods" / "app").read_bytes())
    (shoff,) = struct.unpack_from("<I", data, 32)
    (shnum,) = struct.unpack_from("<H", data, 48)
    for i in range(shnum):
        addr_at = shoff + 40 * i + 12
        if struct.unpack_from("<I", data, addr_at) == (0x900,):
            struct.pack_into("<I", data, addr_at, 0x1000)
    bad = workspace / "overlap.so"
    bad.write_bytes(bytes(data))
    exits_2_with(capsys, ["analyze", str(bad)],
                 f"malformed-section: {bad}: overlapping executable sections "
                 f"at 0x1000")


def test_check_same_module_loaded_twice_at_one_base(workspace: Path, capsys):
    (workspace / "twice.jsonl").write_text(
        LOAD_APP + LOAD_APP.replace('"seq":1', '"seq":2'))
    assert run_check(workspace, "twice.jsonl") == 2
    assert capsys.readouterr().err == (
        "error: overlapping-base: app already loaded at 0x8048000\n")


def test_check_load_of_missing_module_file(workspace: Path, capsys):
    (workspace / "gone.jsonl").write_text(LOAD_APP.replace("app", "libgone.so"))
    assert run_check(workspace, "gone.jsonl") == 2
    missing = workspace / "mods" / "libgone.so"
    err = FileNotFoundError(2, os.strerror(2), str(missing))
    assert capsys.readouterr().err == (
        f"error: malformed-trace: cannot read module file 'libgone.so': {err} "
        f"(event seq 1)\n")


def test_check_unload_of_module_not_loaded(workspace: Path, capsys):
    (workspace / "unload.jsonl").write_text(
        LOAD_APP + '{"seq":2,"tid":0,"kind":"unload","path":"libfoo.so"}\n')
    assert run_check(workspace, "unload.jsonl") == 2
    assert capsys.readouterr().err == (
        "error: malformed-trace: unload of module not loaded: libfoo.so "
        "(event seq 2)\n")


def test_check_load_of_elf64_module(tmp_path: Path, capsys):
    (tmp_path / "load64.jsonl").write_text(
        '{"seq":1,"tid":0,"kind":"load","path":"libcorpus64.so",'
        '"base":"0x10000000"}\n')
    exits_2_with(capsys, ["check", "--trace", str(tmp_path / "load64.jsonl"),
                          "--module-root", str(CORPUS_DIR),
                          "-o", str(tmp_path / "r.json")],
                 "unsupported-class: libcorpus64.so: not an ELF32 image; "
                 "replay maps 32-bit modules only")


@pytest.mark.parametrize("module,message", [
    ({"relocations": [{"offset": "0x100"}]},
     "relocation offset 0x100 outside writable sections"),
    ({"text_vaddr": "0x900", "imports": ["f"], "plt": ["f"]},
     "a.so: sections .plt and .text overlap"),
    ({"symbols": [{"name": "", "value": "0x1000"}]},
     "a.so: symbol with empty name"),
    ({"symbols": [{"name": "f", "value": "0x1000"},
                  {"name": "f", "value": "0x1004"}]},
     "a.so: duplicate symbol name 'f'"),
    ({"instruction_offsets": ["0x2000"]},
     "a.so: instruction offset 0x2000 outside executable sections"),
], ids=["relocation-outside", "overlap", "empty-name", "duplicate-name",
        "offset-outside"])
def test_fixture_inconsistent_spec_exits_2(tmp_path: Path, capsys, module,
                                           message):
    (tmp_path / "spec.json").write_text(
        json.dumps({"path": "a.so", "code_size": 16, **module}))
    exits_2_with(capsys, ["fixture", "--spec", str(tmp_path / "spec.json"),
                          "-o", str(tmp_path / "out")],
                 f"inconsistent-spec: {message}")


# One module whose every byte is a known instruction: a clean local call
# and an intra-function jump, with no other module and no mid-instruction
# address to redirect to.
TINY_SPEC = {"path": "libtiny.so", "code_size": 4,
             "symbols": [{"name": "f", "value": "0x1000", "size": 4}],
             "instruction_offsets": ["0x1001", "0x1002", "0x1003"]}
TINY_TRACE = """\
{"seq":1,"tid":0,"kind":"load","path":"libtiny.so","base":"0x10000000"}
{"seq":2,"tid":0,"kind":"indirect-call","src":"0x10001000","dst":"0x10001000","len":1}
{"seq":3,"tid":0,"kind":"indirect-jump","src":"0x10001001","dst":"0x10001003"}
"""


@pytest.mark.parametrize("mutation,message", [
    ("call", "every loaded function is callable from the source"),
    ("jump", "no mid-instruction address available"),
    ("jump-cross", "no cross-module non-target instruction available"),
])
def test_mutate_without_mutable_target_exits_2(tmp_path: Path, capsys,
                                               mutation, message):
    (tmp_path / "spec.json").write_text(json.dumps(TINY_SPEC))
    assert main(["fixture", "--spec", str(tmp_path / "spec.json"),
                 "-o", str(tmp_path / "mods")]) == 0
    (tmp_path / "tiny.jsonl").write_text(TINY_TRACE)
    sidecar = str(tmp_path / "mods" / "boundaries.sidecar")
    assert main(["check", "--trace", str(tmp_path / "tiny.jsonl"),
                 "--sidecar", sidecar, "--module-root", str(tmp_path / "mods"),
                 "-o", str(tmp_path / "r.json")]) == 0
    capsys.readouterr()
    exits_2_with(capsys, ["mutate", "--trace", str(tmp_path / "tiny.jsonl"),
                          "--class", mutation, "--sidecar", sidecar,
                          "--module-root", str(tmp_path / "mods"),
                          "-o", str(tmp_path / "x.jsonl")],
                 f"mutation-out-of-range: {message}")


def test_console_entry_point_subprocess(workspace: Path):
    env = {"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
           "PATH": "/usr/bin:/bin"}
    proc = subprocess.run(
        [sys.executable, "-m", "dyncfi", "analyze",
         str(workspace / "mods" / "app")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["imports"] == ["foo"]
