from pathlib import Path

import pytest

import working_set


@pytest.mark.skipif(
    not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc"
)
def test_check_peak_is_flat_in_n(tmp_path):
    # The n = 2e5 version runs as a CI step (python tests/working_set.py).
    peaks = [working_set.check_peak_mib(n, tmp_path) for n in (2_000, 20_000)]
    assert abs(peaks[1] - peaks[0]) < working_set.SLACK_MIB, peaks
