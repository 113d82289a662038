"""Shared fixtures.

The experiment drivers are expensive (minutes each at the default trial
counts), so each one runs once per session at seed 0 and every test that
needs its output shares the same table.  Unit tests that construct their own
small inputs should not request these fixtures.
"""

import dataclasses

import pytest

from ccsradar.config import ExperimentConfig
from ccsradar import experiments


@pytest.fixture(scope="session")
def base_config():
    return ExperimentConfig(seed=0)


def _with_kind(config, kind):
    return dataclasses.replace(config, kind=kind)


@pytest.fixture(scope="session")
def pslr_table(base_config):
    return experiments.run_pslr_sweep(_with_kind(base_config, "pslr"))


@pytest.fixture(scope="session")
def suppression_table(base_config):
    return experiments.run_suppression_sweep(_with_kind(base_config, "suppress"))


@pytest.fixture(scope="session")
def interleaver_table(base_config):
    return experiments.run_interleaver_study(_with_kind(base_config, "interleave"))


@pytest.fixture(scope="session")
def bounds_table(base_config):
    return experiments.run_tail_bound_check(_with_kind(base_config, "bounds"))


@pytest.fixture(scope="session")
def nearfar_results(base_config):
    """(summary table, RocCurves, {variant: levels array}) at 100 trials; each
    levels array has one [near, far, max_other] row per trial."""
    return experiments.run_near_far(_with_kind(base_config, "nearfar"))


# -- acceptance verdict scoreboard -------------------------------------------

_ACCEPTANCE_KEY = pytest.StashKey[list]()


def pytest_configure(config):
    config.stash[_ACCEPTANCE_KEY] = []


@pytest.fixture
def acceptance_log(request):
    """Append '[acceptance] ...' verdict lines here; they are replayed in a
    terminal section after the run so capture cannot swallow them."""
    return request.config.stash[_ACCEPTANCE_KEY]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = config.stash.get(_ACCEPTANCE_KEY, [])
    if lines:
        terminalreporter.section("acceptance")
        for line in lines:
            terminalreporter.write_line(line)
