"""Forcing orders: frozen facts plus an independent reimplementation.

The independent Sharkovskii oracle encodes each integer by its position
in the classical sequence 3, 5, 7, ..., 2*3, 2*5, ..., 4*3, ...,
8, 4, 2, 1 and compares positions; it shares no code with the bullet
implementation under test.
"""

import random

import numpy as np
import pytest

import stardyn.cli as cli_module
from stardyn.cli import run
from stardyn.orders import baldwin_le, forced_periods, nod_le, sharkovskii_le


def _split(x):
    i = 0
    while x % 2 == 0:
        x //= 2
        i += 1
    return i, x


def shark_by_position(m, k):
    """m is forced by k iff m sits at-or-after k in the classical sequence."""

    def key(x):
        i, odd = _split(x)
        if odd == 1:
            return (1, -i)
        return (0, i, odd)

    return key(m) >= key(k)


def baldwin_by_definition(t, m, k):
    """Direct restatement of the three defining cases."""
    if k == 1:
        return m == 1
    if k % t == 0:
        return m == 1 or (m % t == 0 and shark_by_position(m // t, k // t))
    if m in (1, k):
        return True
    i = 0
    while i * k < m:
        if (m - i * k) % t == 0:
            return True
        i += 1
    return False


def relation_matrix(le, lo, hi):
    size = hi - lo + 1
    mat = np.zeros((size, size), dtype=bool)
    for a in range(lo, hi + 1):
        for b in range(lo, hi + 1):
            mat[a - lo, b - lo] = le(a, b)
    return mat


def assert_partial_order(mat):
    n = mat.shape[0]
    assert mat.diagonal().all(), "not reflexive"
    sym = mat & mat.T
    assert not (sym & ~np.eye(n, dtype=bool)).any(), "not antisymmetric"
    closure = (mat.astype(np.int64) @ mat.astype(np.int64)) > 0
    assert not (closure & ~mat).any(), "not transitive"


# ------------------------------------------------------------ sharkovskii

def test_sharkovskii_frozen_facts():
    assert {x for x in range(1, 101) if sharkovskii_le(x, 4)} == {1, 2, 4}
    assert sharkovskii_le(6, 3)
    assert not sharkovskii_le(3, 6)
    assert sharkovskii_le(2, 3) and sharkovskii_le(1, 2)
    assert not sharkovskii_le(8, 4)


def test_sharkovskii_reflexive():
    assert all(sharkovskii_le(m, m) for m in range(1, 101))


def test_sharkovskii_total_order_on_1_200():
    mat = relation_matrix(sharkovskii_le, 1, 200)
    assert_partial_order(mat)
    assert (mat | mat.T).all(), "not total"


def test_sharkovskii_matches_position_oracle():
    for m in range(1, 301):
        for k in range(1, 301):
            assert sharkovskii_le(m, k) == shark_by_position(m, k), (m, k)


def test_forced_periods_frozen():
    assert forced_periods(1, 5, 10) == {1, 2, 4, 5, 6, 7, 8, 9, 10}
    assert forced_periods(1, 3, 10) == set(range(1, 11))
    assert forced_periods(1, 6, 10) == {1, 2, 4, 6, 8, 10}
    assert forced_periods(1, 4, 100) == {1, 2, 4}
    assert forced_periods(1, 1, 10) == {1}


# ----------------------------------------------------------------- baldwin

def test_baldwin_frozen_facts():
    assert {m for m in range(1, 15) if baldwin_le(3, m, 5)} == {
        1, 3, 5, 6, 8, 9, 11, 12, 13, 14
    }
    assert {m for m in range(1, 11) if baldwin_le(3, m, 6)} == {1, 3, 6}
    assert all(baldwin_le(3, m, 1) == (m == 1) for m in range(1, 51))


def test_baldwin_rejects_t_below_2():
    with pytest.raises(ValueError):
        baldwin_le(1, 2, 3)


def test_baldwin_matches_definition_oracle():
    rng = random.Random(5)
    for _ in range(300):
        t = rng.randint(2, 6)
        k = rng.randint(1, 40)
        m = rng.randint(1, 200)
        assert baldwin_le(t, m, k) == baldwin_by_definition(t, m, k), (t, m, k)


def test_baldwin_partial_orders_on_1_100():
    for t in (2, 3, 4):
        assert_partial_order(relation_matrix(lambda a, b: baldwin_le(t, a, b), 1, 100))


def test_forced_periods_baldwin():
    assert forced_periods(3, 6, 10) == {1, 3, 6}
    assert forced_periods(2, 1, 10) == {1}


# --------------------------------------------------------------------- nod

def test_order_arguments_below_one_are_rejected():
    with pytest.raises(ValueError, match="^periods must be positive$"):
        baldwin_le(3, 0, 5)
    with pytest.raises(ValueError, match="^periods must be positive$"):
        baldwin_le(3, 5, 0)
    with pytest.raises(ValueError, match="^need n >= 1$"):
        nod_le(0, 1, 2)


def test_nod_le_is_the_meet_of_the_orders():
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randint(1, 4)
        m, k = rng.randint(1, 60), rng.randint(1, 60)
        expected = sharkovskii_le(m, k) and all(
            baldwin_le(t, m, k) for t in range(2, n + 1)
        )
        assert nod_le(n, m, k) == expected


def test_nod_frozen_facts():
    assert not nod_le(3, 2, 3)
    assert nod_le(2, 2, 3)
    assert nod_le(1, 2, 3)
    assert nod_le(3, 1, 7)


def test_nod_partial_order_on_1_100():
    for n in (2, 3, 4):
        assert_partial_order(relation_matrix(lambda a, b: nod_le(n, a, b), 1, 100))


# ---------------------------------------------------------------- CLI

@pytest.mark.parametrize(
    "relation", [["shark"], ["baldwin", "--t", "2"], ["nod", "--t", "2"]], ids=lambda r: r[0]
)
@pytest.mark.parametrize("segment", ["-4", "0", "4"])
def test_orders_set_mode_rejects_a_bound_below_1(relation, segment, capsys):
    # as for --pmax: exit 2, the usage synopsis, and nothing listed
    argv = ["orders", "--relation", *relation, "--segment", segment, "--bound", "0"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        cli_module._build_parser().format_usage() + "stardyn: error: --bound must be a positive integer\n"
    )


@pytest.mark.parametrize(
    "relation",
    [["shark"], ["baldwin", "--t", "2"], ["baldwin", "--t", "3"],
     ["nod", "--t", "1"], ["nod", "--t", "2"], ["nod", "--t", "3"]],
    ids=lambda r: "-".join(r[::2]),
)
def test_orders_set_mode_lists_what_pair_mode_calls_true(relation, capsys):
    orders = ["orders", "--relation", *relation]
    for segment in range(1, 13):
        assert run([*orders, "--segment", str(segment), "--bound", "40"]) == 0
        listed = capsys.readouterr().out
        below = []
        for m in range(1, 41):
            assert run([*orders, "--m", str(m), "--k", str(segment)]) == 0
            if capsys.readouterr().out == "true\n":
                below.append(m)
        assert listed == " ".join(map(str, below)) + "\n", segment
