"""Reduction metric: arithmetic, universes, summaries, CSV export."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from strategies import EXE_BASE, LIB_BASE, imap_for, two_module_workspace

from dyncfi import MetricError, ProcessImage, compute_universe
from dyncfi.dair import DairTracker


def test_single_transfer_worked_value():
    t = DairTracker()
    t.record_transfer("indirect-call", 1, 100, seq=1)
    assert t.finalize()["total"] == pytest.approx(0.99, abs=0)
    assert t.finalize()["total"] == 0.99


def test_two_transfer_worked_value():
    t = DairTracker()
    t.record_transfer("indirect-call", 1, 100, seq=1)
    t.record_transfer("indirect-jump", 50, 100, seq=2)
    assert t.finalize()["total"] == (0.99 + 0.50) / 2
    assert t.finalize()["total"] == 0.745


def test_all_return_trace_matches_shadow_stack_pinning():
    t = DairTracker()
    for i in range(25):
        t.record_transfer("return", 1, 10_000, seq=i + 1)
    assert t.finalize()["total"] == pytest.approx(1 - 1 / 10_000, abs=1e-15)
    assert t.finalize()["total_pct"] == "99.99%"


def test_independent_recomputation_within_tolerance():
    rng = random.Random(42)
    t = DairTracker()
    for i in range(500):
        s = rng.randint(1, 100_000)
        t.record_transfer(rng.choice(["indirect-call", "indirect-jump", "return"]),
                          rng.randint(0, s), s, seq=i + 1)
    exact = float(oracle.recompute_dair(t.records))
    assert abs(t.finalize()["total"] - exact) < 1e-12
    assert abs(oracle.recompute_dair_floats(t.records) - exact) < 1e-12


def test_per_kind_decomposition():
    rng = random.Random(7)
    t = DairTracker()
    for i in range(300):
        s = rng.randint(2, 10_000)
        t.record_transfer(rng.choice(["indirect-call", "indirect-jump", "return"]),
                          rng.randint(1, s), s, seq=i + 1)
    per_kind = t.finalize()["per_kind"]
    assert sum(v["n"] for v in per_kind.values()) == t.n
    weighted = sum(v["value"] * v["n"] for v in per_kind.values())
    assert abs(weighted / t.n - t.finalize()["total"]) < 1e-12


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 1000), st.integers(1, 1000)),
                min_size=1, max_size=50))
def test_range_property(pairs):
    t = DairTracker()
    s_max = 0
    for i, (allowed, universe) in enumerate(pairs):
        allowed = min(allowed, universe)
        s_max = max(s_max, universe)
        t.record_transfer("indirect-call", allowed, universe, seq=i + 1)
    assert 0.0 <= t.finalize()["total"] <= 1.0 - 1.0 / s_max + 1e-15


def test_errors():
    t = DairTracker()
    with pytest.raises(MetricError) as exc:
        t.record_transfer("indirect-call", 1, 0, seq=1)
    assert exc.value.code == "invalid-universe"
    with pytest.raises(MetricError) as exc:
        t.finalize()
    assert exc.value.code == "no-transfers"
    with pytest.raises(MetricError):
        DairTracker().finalize()


@pytest.mark.parametrize("kind,allowed,message", [
    ("indirect-call", -1, "negative target-set size at seq 7"),
    ("direct-call", 1, "unknown transfer kind 'direct-call'"),
], ids=["negative-size", "unknown-kind"])
def test_record_transfer_rejects_what_no_replay_records(kind, allowed, message):
    t = DairTracker()
    with pytest.raises(MetricError) as exc:
        t.record_transfer(kind, allowed, 100, seq=7)
    assert (exc.value.code, exc.value.message) == ("invalid-universe", message)
    assert t.n == 0


def test_finalize_formats_percentages():
    t = DairTracker()
    t.record_transfer("indirect-call", 1, 100, seq=1)
    t.record_transfer("return", 1, 100, seq=2)
    out = t.finalize()
    assert out["total_pct"] == "99.00%"
    assert out["per_kind"]["indirect-call"]["pct"] == "99.00%"
    assert set(out["per_kind"]) == {"indirect-call", "return"}
    assert out["series"] == [[1, 0.99], [2, 0.99]]


def test_report_dict_with_no_transfers():
    t = DairTracker()
    d = t.to_report_dict()
    assert d == {"n": 0, "total": None, "per_kind": {}, "series": []}


def test_csv_series_layout():
    t = DairTracker()
    t.record_transfer("indirect-call", 1, 100, seq=3)
    t.record_transfer("return", 1, 100, seq=4)
    lines = t.csv_series().strip().splitlines()
    assert lines[0] == "seq,dair_total,dair_call,dair_jump,dair_ret"
    assert lines[1].startswith("3,0.99,0.99,,")
    assert lines[2].split(",")[4] == "0.99"


def test_running_values_match_oracle_on_every_prefix():
    rng = random.Random(11)
    t = DairTracker()
    for i in range(300):
        s = rng.randint(1, 50_000)
        t.record_transfer(rng.choice(["indirect-call", "indirect-jump", "return"]),
                          rng.randint(0, s), s, seq=2 * i + 1)
    rows = t.csv_series().splitlines()[1:]
    series = t.to_report_dict()["series"]
    assert len(rows) == len(series) == 300
    for n, (row, (seq, total)) in enumerate(zip(rows, series), start=1):
        prefix = t.records[:n]
        assert seq == prefix[-1].seq
        assert total == oracle.recompute_dair_floats(prefix)
        expected = [str(seq), f"{total:.12g}"]
        for kind in ("indirect-call", "indirect-jump", "return"):
            of_kind = [r for r in prefix if r.kind == kind]
            expected.append(f"{oracle.recompute_dair_floats(of_kind):.12g}"
                            if of_kind else "")
        assert row.split(",") == expected


# ---------------------------------------------------------------------------
# compute_universe
# ---------------------------------------------------------------------------

def two_loaded():
    specs, images, _ = two_module_workspace()
    p = ProcessImage()
    p.load_module(images["app"], EXE_BASE,
                  imap_for(specs["app"], images["app"], True))
    p.load_module(images["libfoo.so"], LIB_BASE,
                  imap_for(specs["libfoo.so"], images["libfoo.so"], True))
    return p


def test_universe_counts_executable_bytes():
    p = two_loaded()
    # app: text 0x100 + plt 0x10; lib: text 0x200
    assert compute_universe(p) == 0x100 + 0x10 + 0x200
    lib_id = next(mid for mid in p.loaded if mid.startswith("libfoo"))
    p.unload_module(lib_id)
    assert compute_universe(p) == 0x110


def test_universe_page_sized_text_sections():
    from dyncfi import FixtureSpec, SymbolSpec, derive_instruction_map
    from strategies import make_image
    spec_a = FixtureSpec(path="a.so", code=b"\x90" * 0x1000,
                         symbols=(SymbolSpec("a", 0x1000, 0x10),))
    spec_b = FixtureSpec(path="b.so", code=b"\x90" * 0x1000,
                         symbols=(SymbolSpec("b", 0x1000, 0x10),))
    p = ProcessImage()
    p.load_module(make_image(spec_a), 0x40000000,
                  derive_instruction_map(make_image(spec_a)))
    assert compute_universe(p) == 4096
    lm = p.load_module(make_image(spec_b), 0x41000000,
                       derive_instruction_map(make_image(spec_b)))
    assert compute_universe(p) == 8192
    p.unload_module(lm.module_id)
    assert compute_universe(p) == 4096


def test_universe_valid_instruction_mode():
    p = two_loaded()
    expected = sum(len(lm.imap.offsets) for lm in p.loaded.values())
    assert compute_universe(p, "valid-instructions") == expected
    assert compute_universe(p, "valid-instructions") < compute_universe(p)


def test_universe_empty_process_errors():
    with pytest.raises(MetricError) as exc:
        compute_universe(ProcessImage())
    assert exc.value.code == "empty-process"
    with pytest.raises(MetricError):
        compute_universe(two_loaded(), "bogus-mode")
