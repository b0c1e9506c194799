from pathlib import Path

import pytest

import working_set

needs_proc = pytest.mark.skipif(
    not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc"
)


def assert_flat(measure, n1, n2, work, slack=working_set.SLACK_MIB):
    # The n = 2e4 against 2e5 version of each mode runs as a CI step
    # (python tests/working_set.py MODE 20000 200000).
    figures = [measure(n, work) for n in (n1, n2)]
    assert abs(figures[1] - figures[0]) < slack, figures


@needs_proc
def test_check_peak_is_flat_in_n(tmp_path):
    assert_flat(working_set.check_peak_mib, 2_000, 20_000, tmp_path)


# Both n of a run mode exceed a few units of 5632 steps.
@needs_proc
def test_run_peak_is_flat_in_n(tmp_path):
    assert_flat(working_set.run_peak_mib, 20_000, 100_000, tmp_path)


@needs_proc
def test_run_check_peak_is_flat_in_n(tmp_path):
    assert_flat(working_set.run_check_peak_mib, 20_000, 100_000, tmp_path)


@needs_proc
def test_run_check_faults_are_flat_in_n(tmp_path):
    assert_flat(
        working_set.run_check_faults, 2_000, 20_000, tmp_path, working_set.SLACK_FAULTS
    )


# The m = 512 against 2048 version runs as a CI step
# (python tests/working_set.py m 512 2048).
@needs_proc
def test_pass_peak_is_linear_in_m(tmp_path):
    peaks = [working_set.pass_peak_mib(m, tmp_path) for m in (128, 512)]
    assert peaks[1] - peaks[0] < working_set.pass_slack_mib(128, 512), peaks
