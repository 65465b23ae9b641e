"""The histogram file format, read back from what it writes, and the one
object per detection pattern."""

import copy
import itertools
import math
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonfusion.records import (
    CoincidenceHistogram,
    DetectionPattern,
    all_detection_patterns,
    angle_setting,
    histogram_from_lines,
    histogram_to_lines,
    hv_setting,
    k_setting,
)

ANGLES = st.floats(0.0, 2 * math.pi, exclude_max=True)


@st.composite
def histograms(draw):
    """A histogram of 1 to 10 arms in either basis, holding sampled counts
    or exact probabilities on a non-empty subset of its patterns."""
    width = draw(st.integers(1, 10))
    rotated = draw(st.booleans())
    if not rotated:
        setting = hv_setting()
    elif draw(st.booleans()):
        setting = k_setting(draw(st.integers(0, 15)), width)
    else:
        setting = angle_setting(draw(st.lists(ANGLES, min_size=width, max_size=width)))
    patterns = all_detection_patterns(width, setting.symbols)
    exact = draw(st.booleans())
    values = st.floats(0.0, 1.0) if exact else st.integers(0, 10**12)
    indices = draw(
        st.lists(st.integers(0, len(patterns) - 1), min_size=1, max_size=32, unique=True)
    )
    counts = {patterns[i]: draw(values) for i in indices}
    duration = draw(st.floats(1e-6, 1e9))
    seed = draw(st.integers(0, 2**63))
    return CoincidenceHistogram(setting, counts, duration, seed, exact=exact)


@settings(max_examples=200, deadline=None)
@given(histograms())
def test_histogram_lines_round_trip(hist):
    lines = histogram_to_lines(hist)
    back = histogram_from_lines(lines)
    assert back == hist
    assert histogram_to_lines(back) == lines


@pytest.mark.parametrize(
    "lines",
    [
        # read as HV, populations gave all-H, all-V and combined 0.0 +- 0.0
        ["HV,1.0,0", "++++++++,5", "--------,7", "+-+-+-+-,1"],
        # read as k0, every row had parity +1 and m_k_expectation 1.0 +- 0.0
        ["k0,1.0,0", "HHHHHHHV,5", "VVVVVVVH,7"],
    ],
)
def test_rows_outside_the_header_basis_are_refused(lines):
    with pytest.raises(ValueError, match="outside the"):
        histogram_from_lines(lines)
    setting = hv_setting() if lines[0].startswith("HV") else k_setting(0)
    counts = {DetectionPattern(row.split(",")[0]): 1 for row in lines[1:]}
    with pytest.raises(ValueError, match="outside the"):
        CoincidenceHistogram(setting, counts, 1.0, 0)


def test_one_object_per_pattern():
    pat = DetectionPattern("HVHVHV")
    assert DetectionPattern("HVHVHV") is pat
    read = histogram_from_lines(["HV,1.0,0", "HVHVHV,3"])
    assert next(iter(read.counts)) is pat
    assert copy.copy(pat) is pat
    assert copy.deepcopy(pat) is pat
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(pat, protocol)) is pat
    names = ["-+-", "+--", "---", "+++", "-++"]
    assert [str(p) for p in sorted(map(DetectionPattern, names))] == sorted(names)
    assert DetectionPattern("+--") < DetectionPattern("-+-") <= DetectionPattern("-+-")


@pytest.mark.parametrize("bits", [["H", "V"], ("+", "-"), b"HV", None, 7])
def test_detection_pattern_refuses_a_non_string(bits):
    with pytest.raises(ValueError, match="bad pattern"):
        DetectionPattern(bits)


def test_threads_building_one_new_pattern_share_it():
    # 13-arm patterns, which no other test builds; a short switch interval
    # lets a thread lose the GIL between looking a pattern up and storing it
    fresh = ["".join(arms) for arms in itertools.product("+-", repeat=13)][:2000]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    start = threading.Barrier(8)
    built = [None] * 8

    def build(i):
        start.wait()
        built[i] = [DetectionPattern(bits) for bits in fresh]

    threads = [threading.Thread(target=build, args=(i,)) for i in range(8)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    for row in zip(*built):
        assert all(pat is row[0] for pat in row)
