"""The package's import surface: public names loaded on first use, and
the BLAS thread count that the command line, and only it, defaults."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import streamkpca

SRC = str(Path(streamkpca.__file__).resolve().parents[1])
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fresh_python(script: str, **env_vars) -> str:
    """stdout of script in a new interpreter that imports this checkout,
    with the BLAS variables removed and then env_vars set."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.update(env_vars)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def blas_env_after(module: str, **env_vars) -> dict:
    script = (
        "import json, os\n"
        f"import {module}\n"
        f"print(json.dumps({{v: os.environ.get(v) for v in {BLAS_VARS!r}}}))\n"
    )
    return json.loads(fresh_python(script, **env_vars))


class TestLazyImport:
    def test_import_loads_no_submodule_and_no_numpy(self):
        script = (
            "import sys\n"
            "import streamkpca\n"
            "print(sorted(m for m in sys.modules"
            " if m == 'numpy' or m.startswith('streamkpca.')))\n"
        )
        assert fresh_python(script) == "[]\n"

    def test_every_public_name_is_its_submodules_object(self):
        star = {}
        exec("from streamkpca import *", star)
        for name in streamkpca.__all__:
            module = importlib.import_module(
                f"streamkpca.{streamkpca._MODULE_OF[name]}"
            )
            assert getattr(streamkpca, name) is getattr(module, name)
            assert star[name] is getattr(module, name)

    def test_dir_lists_every_public_name(self):
        assert set(streamkpca.__all__) <= set(dir(streamkpca))

    def test_unknown_name_is_attribute_error_naming_it(self):
        with pytest.raises(AttributeError, match="'no_such_name'"):
            streamkpca.no_such_name  # noqa: B018


class TestBlasThreads:
    def test_cli_defaults_each_variable_to_one(self):
        assert blas_env_after("streamkpca.cli") == dict.fromkeys(BLAS_VARS, "1")

    def test_library_sets_no_variable(self):
        assert blas_env_after("streamkpca.harness") == dict.fromkeys(BLAS_VARS)

    def test_cli_keeps_an_explicit_count(self):
        env = blas_env_after("streamkpca.cli", OPENBLAS_NUM_THREADS="2")
        assert env["OPENBLAS_NUM_THREADS"] == "2"
