from pathlib import Path

import pytest

import working_set


@pytest.mark.skipif(
    not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc"
)
def test_check_peak_is_flat_in_n(tmp_path):
    # The n = 2e5 version runs as a CI step (python tests/working_set.py check).
    peaks = [working_set.check_peak_mib(n, tmp_path) for n in (2_000, 20_000)]
    assert abs(peaks[1] - peaks[0]) < working_set.SLACK_MIB, peaks


@pytest.mark.skipif(
    not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc"
)
def test_run_check_peak_grows_only_by_its_stream(tmp_path):
    # Both n exceed a few units of 5632 steps. The 2e4 against 2e5
    # version runs as a CI step (python tests/working_set.py run-check).
    low, high = 20_000, 100_000
    peaks = [working_set.run_check_peak_mib(n, tmp_path) for n in (low, high)]
    stream = working_set.stream_mib(high) - working_set.stream_mib(low)
    assert peaks[1] - peaks[0] < stream + working_set.SLACK_MIB, peaks
