"""The package's export list and what importing it loads."""
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import levyfourier


def test_every_exported_name_resolves_once():
    names = levyfourier.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(levyfourier, name) is not None, name


def test_removed_gridding_parameters_stay_unexported():
    # the gridding lattice is derived inside Step 1; nothing sets it, and
    # each source's band replaces the per-node windows; kernel_table
    # returns the table itself, not a KernelTable
    for name in ("NufftParams", "nufft_params", "build_windows", "KernelTable"):
        assert name not in levyfourier.__all__
        assert not hasattr(levyfourier, name)


def test_import_loads_no_quadrature_or_test_dependency():
    # scipy.integrate is for the selftest alone, and mpmath and pytest are
    # test dependencies: a fresh interpreter importing the package and its
    # CLI must load none of them
    src = str(Path(levyfourier.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = ("import sys, levyfourier, levyfourier.cli\n"
            "print(' '.join(m for m in ('scipy.integrate', 'mpmath', 'pytest')"
            " if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_parity_tool_prints_one_digest_per_stage(monkeypatch, capsys):
    # tools/parity.py is the bitwise gate between two checkouts; a short run
    # keeps it in step with the package API it imports
    path = Path(__file__).resolve().parents[1] / "tools" / "parity.py"
    monkeypatch.setattr(sys, "path", sys.path[:])      # parity puts src/ first
    spec = importlib.util.spec_from_file_location("parity", path)
    parity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity)
    monkeypatch.setattr(parity, "EXPONENTS", range(7, 9))
    monkeypatch.setattr(parity, "TIMES", (1.0,))
    parity.main()
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["step1", "exponent", "density"]
    assert all(re.fullmatch(r"\w+ [0-9a-f]{64}", line) for line in lines)
