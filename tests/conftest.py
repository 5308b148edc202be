from pathlib import Path

import pytest

from qrouter import cli

from .output_contract import run_matrix


@pytest.fixture(autouse=True)
def no_kept_states(monkeypatch):
    """Each test starts with no states kept by ``qrouter run``, so a state that
    an earlier run formed cannot stand in for one the test forms or forbids."""
    monkeypatch.setattr(cli, "_kept_states", {})


@pytest.fixture(scope="session")
def matrix(tmp_path_factory):
    """The output contract's matrix, run once per session in this process: the
    directory of its 92 files, and each run's (experiment, tomography, report,
    exit code)."""
    with pytest.MonkeyPatch.context() as m:
        m.chdir(tmp_path_factory.mktemp("matrix"))
        return Path.cwd(), list(run_matrix())
