import subprocess
import sys

import pytest

import qknap


def test_every_public_name_resolves():
    for name in qknap.__all__:
        value = getattr(qknap, name)
        assert value.__name__ == name and value.__module__.startswith("qknap.")
    star = {}
    exec("from qknap import *", star)
    assert set(star) - {"__builtins__"} == set(qknap.__all__)
    assert set(qknap.__all__) <= set(dir(qknap))
    assert "__version__" in dir(qknap)
    with pytest.raises(AttributeError, match="no_such_name"):
        qknap.no_such_name


def test_import_qknap_loads_no_submodule():
    script = 'import sys, qknap; print(" ".join(m for m in sys.modules if m.startswith("qknap.")))'
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == []
