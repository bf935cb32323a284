"""Determinism and independence of the seeded stream hierarchy."""

import numpy as np
import pytest

from randnet.errors import InvalidInputError
from randnet.rng import RngStream, as_stream


def test_same_seed_same_draws():
    a = RngStream(42).generator().uniform(size=16)
    b = RngStream(42).generator().uniform(size=16)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = RngStream(42).generator().uniform(size=16)
    b = RngStream(43).generator().uniform(size=16)
    assert not np.array_equal(a, b)


def test_pinned_reference_draws():
    # Frozen reference values. Guards the counter-based generator choice: any
    # platform or version that changes these breaks cross-machine replays.
    got = RngStream(123).generator().uniform(size=3)
    assert got.tolist() == [
        0.9000765064874395,
        0.9059836136854217,
        0.24685119836848102,
    ]
    got = RngStream(123).child(4, 2).generator().uniform(size=2)
    assert got.tolist() == [0.21495622801077574, 0.04290322585745665]


def test_child_path_composition():
    one_call = RngStream(9).child(1, 2).generator().uniform(size=8)
    chained = RngStream(9).child(1).child(2).generator().uniform(size=8)
    assert np.array_equal(one_call, chained)


def test_children_are_independent_of_parent_draws():
    s = RngStream(5)
    before = s.child(3).generator().uniform(size=8)
    s.generator().uniform(size=1000)  # consuming the parent must not matter
    after = s.child(3).generator().uniform(size=8)
    assert np.array_equal(before, after)


def test_sibling_children_differ():
    s = RngStream(5)
    a = s.child(0).generator().uniform(size=8)
    b = s.child(1).generator().uniform(size=8)
    assert not np.array_equal(a, b)


def test_as_stream_accepts_seed_and_stream():
    s = RngStream(17)
    assert as_stream(s) is s
    assert np.array_equal(
        as_stream(17).generator().uniform(size=4), s.generator().uniform(size=4)
    )


def test_as_stream_rejects_junk():
    with pytest.raises(InvalidInputError):
        as_stream("not a seed")


def test_negative_seeds_are_rejected():
    with pytest.raises(InvalidInputError):
        RngStream(-1)
    with pytest.raises(InvalidInputError):
        as_stream(-1)
