"""What importing the package loads, and what its public names resolve to.

The numeric oracle, and numpy with it, loads on first use of one of its
names: importing cartensor and running ``cartensor reduce`` never load numpy,
while ``verify`` and ``corpus`` load it and print what they always printed.
Each check of what a process loads runs in a fresh interpreter, since the
test process itself has the oracle loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cartensor

SRC = str(Path(cartensor.__file__).resolve().parent.parent)
ORACLE_NAMES = ("VerifyReport", "eval_expr", "verify", "ylm")


def python(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    env.pop("CARTENSOR_SEED", None)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def test_import_loads_neither_oracle_nor_numpy():
    proc = python("-c", "import sys, cartensor; "
                        "print(sorted({'numpy', 'cartensor.oracle'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_reduce_command_imports_no_numpy():
    proc = python("-X", "importtime", "-m", "cartensor", "reduce", "Y[1](a)")
    assert proc.returncode == 0, proc.stderr
    modules = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
               if line.startswith("import time:")]
    assert "cartensor.cli" in modules
    assert not [m for m in modules if m == "numpy" or m.startswith("numpy.")]


@pytest.mark.parametrize("script", [
    "import cartensor; first = [getattr(cartensor, n) for n in NAMES]; "
    "from cartensor import oracle",
    "from cartensor import oracle; import cartensor; "
    "first = [getattr(cartensor, n) for n in NAMES]",
], ids=["name-first", "module-first"])
def test_oracle_names_are_the_oracle_module_names(script):
    """In a fresh process, so that the first access, of a name or of the
    module, finds the oracle not yet loaded."""
    proc = python("-c", f"NAMES = {ORACLE_NAMES!r}; {script}; import cartensor; "
                        "print(cartensor.oracle is oracle and all(f is getattr(oracle, n) "
                        "for f, n in zip(first, NAMES)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from cartensor import *", namespace)
    assert set(cartensor.__all__) <= set(namespace)


def test_dir_lists_every_public_name():
    assert set(cartensor.__all__) <= set(dir(cartensor))
    assert not hasattr(cartensor, "no_such_name")


@pytest.mark.parametrize("argv,stdout", [
    (["verify", "Y[0](a)", "--samples", "20"],
     {"expr": "Y[0](a)", "samples": 20, "seed": 20240831, "max_abs_err": 0.0,
      "max_imag_leak": 0.0, "pass": True, "max_rel_err": 0.0,
      "worst": {"sample": 0, "m": 0}}),
    (["corpus", "--check", "--samples", "5"], "26/26 pass"),
], ids=["verify", "corpus"])
def test_oracle_commands_print_their_output(argv, stdout):
    proc = python("-m", "cartensor", *argv)
    assert proc.returncode == 0, proc.stderr
    expected = stdout if isinstance(stdout, str) else json.dumps(stdout)
    assert proc.stdout == expected + "\n"
    assert proc.stderr == ""
