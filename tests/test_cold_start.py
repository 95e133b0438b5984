"""Fresh interpreters: what a cold `cinfer` process imports, and the
`requires-python` floor."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DETAILS = json.loads((Path(__file__).parent / "verify_paper_details.json").read_text())


def _env(**extra) -> dict:
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


# Runs in a fresh interpreter; prints which of the named modules got loaded.
LOADED = """
import sys
{run}
print(sorted(m for m in ("dataclasses", "inspect") if m in sys.modules), file=sys.stderr)
"""


@pytest.mark.parametrize(
    "run",
    [
        "import cinfer.cli",
        "import io, cinfer.cli\n"
        "sys.stdout = io.StringIO()\n"
        "assert cinfer.cli.main(['verify-paper']) == 0",
    ],
    ids=["import", "verify-paper"],
)
def test_cold_process_loads_no_dataclasses(run):
    result = subprocess.run(
        [sys.executable, "-c", LOADED.format(run=run)],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr.strip() == "[]"


# The layers a traced bench run wraps: `import cinfer, cinfer.cli` loads them all.
LAYERS = ("cli", "checks", "inference", "dist", "setfn", "inequalities", "catalog")


@pytest.mark.parametrize(
    "run, loaded",
    [
        ("import cinfer", ["cinfer"]),
        ("import cinfer.inference", ["cinfer", "cinfer.inference", "cinfer.sets", "cinfer.structures"]),
        (
            "import cinfer, cinfer.cli",
            sorted(["cinfer", "cinfer.sets", "cinfer.structures"] + [f"cinfer.{m}" for m in LAYERS]),
        ),
    ],
    ids=["package", "inference", "cli"],
)
def test_import_loads_only_the_layers_it_needs(run, loaded):
    """The package binds its names on first access, so a process loads only
    the layers it imports; the inference layer needs no distributions."""
    report = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'cinfer'))"
    result = subprocess.run(
        [sys.executable, "-c", f"import sys\n{run}\n{report}"],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == str(loaded)


def test_import_grounds_no_rules():
    """Ground rules and the closure engine's rule bitsets are built on first
    use, not at import: every `cinfer` call is a cold process."""
    run = (
        "import cinfer, cinfer.cli\n"
        "from cinfer.inference import _Engine, _ground_rules_cached\n"
        "print(_Engine.cache_info().currsize, _ground_rules_cached.cache_info().currsize)"
    )
    result = subprocess.run(
        [sys.executable, "-c", run],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0", "0"]


@pytest.mark.parametrize("version", ["3.10", "3.13"])
def test_verify_paper_on_supported_interpreter(version):
    """The package runs on the oldest and the newest supported Python.  A
    pyenv shim runs its ``pythonX.Y`` only for the selected version, so
    PYENV_VERSION selects it; any other interpreter ignores the variable."""
    python = shutil.which(f"python{version}")
    if python is None:
        pytest.skip(f"python{version} is not on PATH")
    env = _env(PYENV_VERSION=version)
    probe = subprocess.run(
        [python, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    if probe.returncode != 0:
        pytest.skip(f"python{version} does not start")
    assert probe.stdout.strip() == version
    result = subprocess.run(
        [python, "-m", "cinfer.cli", "verify-paper", "--json"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    details = {r["check"]: r["detail"] for r in json.loads(result.stdout)}
    assert details == DETAILS
