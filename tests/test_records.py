"""The histogram file format, read back from what it writes."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from photonfusion.records import (
    CoincidenceHistogram,
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
