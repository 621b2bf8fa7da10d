"""The quickstart example runs without deprecation warnings (CI runs
the slower examples the same way with ``-W error::DeprecationWarning``)."""

import runpy
import warnings
from pathlib import Path


def test_quickstart_runs_without_deprecation_warnings(capsys):
    path = Path(__file__).resolve().parent.parent / "examples" / "quickstart.py"
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        runpy.run_path(str(path), run_name="__main__")
    assert "memcached_wait x32  -> 32 stored" in capsys.readouterr().out
