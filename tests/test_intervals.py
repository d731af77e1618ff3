import numpy as np
import pytest

from varanom import Interval, ParameterError, random_intervals, seeded_intervals
from varanom.intervals import build_intervals


def test_random_intervals_contract():
    ivs = random_intervals(500, 11, 1029, seed=7, q=1)
    assert len(ivs) == 1029
    for iv in ivs:
        assert iv.length >= 11
        assert 2 <= iv.start <= iv.end <= 500


def test_random_intervals_deterministic():
    a = random_intervals(300, 5, 200, seed=3)
    b = random_intervals(300, 5, 200, seed=3)
    assert a.intervals == b.intervals
    c = random_intervals(300, 5, 200, seed=4)
    assert a.intervals != c.intervals


def test_random_full_length_degenerate():
    ivs = random_intervals(50, 50, 7, seed=0)
    assert len(ivs) == 7
    assert all(iv == Interval(1, 50) for iv in ivs)


def test_random_infeasible_length():
    with pytest.raises(ParameterError):
        random_intervals(100, 100, 5, seed=0, q=1)


def test_seeded_small_case_layers():
    # T=8, L=2, decay 1/2: layer lengths 8, 4, 2 with 1, 3 and 7 intervals
    ivs = seeded_intervals(8, 2, 0.5)
    got = {(iv.start, iv.end) for iv in ivs}
    want = {(1, 8), (1, 4), (3, 6), (5, 8)} | {(i, i + 1) for i in range(1, 8)}
    assert got == want
    assert len(ivs) == 11


def test_seeded_no_duplicates_and_lengths():
    for decay in (0.5, 1 / 1.2, 1 / 1.1):
        ivs = seeded_intervals(500, 11, decay, q=1)
        pairs = [(iv.start, iv.end) for iv in ivs]
        assert len(pairs) == len(set(pairs))
        assert all(iv.length >= 11 for iv in ivs)
        assert all(2 <= iv.start and iv.end <= 500 for iv in ivs)


def test_seeded_idempotent_and_ordered():
    a = seeded_intervals(200, 7, 1 / 1.1)
    b = seeded_intervals(200, 7, 1 / 1.1)
    assert a.intervals == b.intervals
    assert list(a.intervals) == sorted(a.intervals)


def test_slower_decay_gives_more_intervals():
    finer = seeded_intervals(500, 11, 1 / 1.1)
    coarser = seeded_intervals(500, 11, 1 / 1.2)
    assert len(finer) > len(coarser)


def test_seeded_containment_hook():
    # any window of length >= 2L contains at least one seeded interval
    rng = np.random.default_rng(0)
    ivs = seeded_intervals(500, 11, 1 / 1.1)
    for _ in range(200):
        width = int(rng.integers(22, 200))
        lo = int(rng.integers(1, 500 - width + 1))
        window = Interval(lo, lo + width - 1)
        assert any(window.contains(iv) for iv in ivs)


def test_seeded_decay_validation():
    with pytest.raises(ParameterError):
        seeded_intervals(100, 5, 0.4)
    with pytest.raises(ParameterError):
        seeded_intervals(100, 5, 1.0)


def test_interval_basics():
    with pytest.raises(ParameterError):
        Interval(5, 4)
    assert Interval(1, 10).overlaps(Interval(10, 12))
    assert not Interval(1, 9).overlaps(Interval(10, 12))
    assert Interval(1, 10).contains(Interval(3, 7))
    assert Interval(2, 5).length == 4


def test_interval_set_csv(tmp_path):
    ivs = random_intervals(100, 5, 20, seed=1)
    path = tmp_path / "intervals.csv"
    ivs.to_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "start,end"
    assert len(rows) == 21
    start, end = map(int, rows[1].split(","))
    assert (start, end) == (ivs.intervals[0].start, ivs.intervals[0].end)


def test_interval_set_arrays_are_built_once_and_read_only():
    ivs = random_intervals(100, 5, 20, seed=1)
    assert ivs.starts.tolist() == [iv.start for iv in ivs]
    assert ivs.ends.tolist() == [iv.end for iv in ivs]
    assert ivs.starts is ivs.starts and ivs.ends is ivs.ends
    for a in (ivs.starts, ivs.ends):
        with pytest.raises(ValueError):
            a[0] = 0
    assert ivs == random_intervals(100, 5, 20, seed=1)


def test_build_intervals_dispatches_on_scheme():
    assert build_intervals("random", 300, 5, 1, 40, 0.9, 3) == random_intervals(300, 5, 40, 3, q=1)
    assert build_intervals("seeded", 300, 5, 1, 40, 0.9, 3) == seeded_intervals(300, 5, 0.9, q=1)
    with pytest.raises(ParameterError):
        build_intervals("grid", 300, 5, 1, 40, 0.9, 3)
