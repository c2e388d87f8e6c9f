"""Shadow stack: push/pop/unwind semantics and sequence properties."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import balanced_shadow_ops, shadow_frames

from dyncfi import ShadowStack, ShadowStackError


def test_push_and_matching_return():
    s = ShadowStack()
    s.push_call(0x100, 0x105)
    assert len(s) == 1
    assert shadow_frames(s)[-1] == 0x105
    v = s.pop_and_check(0x105)
    assert v.allowed and len(s) == 0
    assert v.target_set_size == 1


def test_lifo_order_preserved():
    s = ShadowStack()
    s.push_call(0x100, 0x105)
    s.push_call(0x200, 0x203)
    assert list(shadow_frames(s)) == [0x105, 0x203]
    assert s.pop_and_check(0x203).allowed
    assert s.pop_and_check(0x105).allowed


def test_mismatch_denied_with_both_addresses():
    s = ShadowStack()
    s.push_call(0x100, 0x105)
    v = s.pop_and_check(0x2000)
    assert not v.allowed and v.rule == "return-shadow-match"
    assert "0x2000" in v.reason and "0x105" in v.reason


def test_underflow_denied():
    v = ShadowStack().pop_and_check(0x105)
    assert not v.allowed and "underflow" in v.reason


def test_depth_bound():
    s = ShadowStack(max_depth=2)
    s.push_call(1, 2)
    s.push_call(3, 4)
    with pytest.raises(ShadowStackError) as exc:
        s.push_call(5, 6)
    assert exc.value.code == "depth-exceeded"


# ---------------------------------------------------------------------------
# unwind_to
# ---------------------------------------------------------------------------

def test_unwind_removes_frames_above_match():
    s = ShadowStack()
    for i, ra in enumerate((0xA, 0xB, 0xC)):
        s.push_call(i, ra)
    assert s.unwind_to(0xA)
    assert list(shadow_frames(s)) == [0xA]


def test_unwind_to_absent_address_leaves_stack():
    s = ShadowStack()
    for i, ra in enumerate((0xA, 0xB)):
        s.push_call(i, ra)
    assert not s.unwind_to(0x999)
    assert list(shadow_frames(s)) == [0xA, 0xB]


def test_unwind_to_top_frame_is_degenerate():
    s = ShadowStack()
    for i, ra in enumerate((0xA, 0xB, 0xC)):
        s.push_call(i, ra)
    assert s.unwind_to(0xC)
    assert len(s) == 3


# ---------------------------------------------------------------------------
# Sequence properties
# ---------------------------------------------------------------------------

def run_ops(ops, mutate_index=None, bad_value=0xDEAD0001):
    """Returns the verdicts of the return ops."""
    s = ShadowStack()
    verdicts = []
    for i, op in enumerate(ops):
        if op[0] == "call":
            s.push_call(op[1], op[2])
        else:
            claimed = op[1]
            if mutate_index is not None and i == mutate_index:
                claimed = bad_value
            verdicts.append((i, s.pop_and_check(claimed)))
    return s, verdicts


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=1, max_value=40))
def test_balanced_sequences_replay_clean(seed, n_calls):
    ops = balanced_shadow_ops(random.Random(seed), n_calls=n_calls)
    s, verdicts = run_ops(ops)
    assert all(v.allowed for _i, v in verdicts)
    assert len(s) == 0


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_single_mutation_yields_exactly_one_deny(data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    ops = balanced_shadow_ops(random.Random(seed), n_calls=10)
    ret_positions = [i for i, op in enumerate(ops) if op[0] == "ret"]
    pos = data.draw(st.sampled_from(ret_positions))
    s, verdicts = run_ops(ops, mutate_index=pos)
    denies = [(i, v) for i, v in verdicts if not v.allowed]
    assert [i for i, _v in denies] == [pos]
    assert len(s) == 0


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(0, 200))
def test_monotone_unwind_never_changes_surviving_frames(seed, n_frames, probe):
    rng = random.Random(seed)
    s = ShadowStack()
    for i in range(n_frames):
        s.push_call(i, rng.randrange(2**32))
    before = shadow_frames(s)
    target = (before[probe % n_frames]
              if rng.random() < 0.7 else rng.randrange(2**32))
    found = s.unwind_to(target)
    after = shadow_frames(s)
    assert len(after) <= len(before)
    assert after == before[:len(after)]
    if not found:
        assert after == before


def test_replay_determinism():
    ops = balanced_shadow_ops(random.Random(1234), n_calls=30)
    states1 = []
    states2 = []
    for states in (states1, states2):
        s = ShadowStack()
        for op in ops:
            if op[0] == "call":
                s.push_call(op[1], op[2])
            else:
                s.pop_and_check(op[1])
            states.append(shadow_frames(s))
    assert states1 == states2
