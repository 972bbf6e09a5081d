"""The package root: its public names, and what importing it loads."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import dtn_tradesim

# The names README's "Python API" section lists, with their defining modules.
PUBLIC = {
    "ConfigurationError": "dtn_tradesim.errors",
    "SimulationFault": "dtn_tradesim.errors",
    "ProtocolKind": "dtn_tradesim.routing",
    "StudyConfig": "dtn_tradesim.config",
    "load_config": "dtn_tradesim.config",
    "StudyReport": "dtn_tradesim.study",
    "run_study": "dtn_tradesim.study",
    "write_report": "dtn_tradesim.report",
    "__version__": "dtn_tradesim",
}


def test_all_holds_the_readme_names():
    assert sorted(dtn_tradesim.__all__) == sorted(PUBLIC)


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_root_name_is_its_defining_modules_object(name):
    module = importlib.import_module(PUBLIC[name])
    assert getattr(dtn_tradesim, name) is getattr(module, name)


def test_star_import_binds_exactly_all_and_dir_lists_it():
    namespace = {}
    exec("from dtn_tradesim import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(PUBLIC)
    assert set(PUBLIC) <= set(dir(dtn_tradesim))


def test_unknown_root_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        dtn_tradesim.no_such_name  # noqa: B018
    assert not hasattr(dtn_tradesim, "no_such_name")


ENGINE = ["numpy"] + [
    f"dtn_tradesim.{m}"
    for m in ("network", "routing", "simulation", "stats", "decision", "study", "report")
]

# Each probe runs in a fresh interpreter, then prints which ENGINE modules it loaded.
PROBES = {
    "import_and_load_config": (
        "import dtn_tradesim\n"
        "dtn_tradesim.load_config(overrides={'relay_count': '4'})\n"
    ),
    "validate": (
        "from dtn_tradesim.cli import main\n"
        "assert main(['validate', '--config', sys.argv[1]]) == 0\n"
    ),
    "refused_run": (
        "from dtn_tradesim.cli import main\n"
        "assert main(['run', '--relays', '0']) == 1\n"
    ),
    "help": (
        "from dtn_tradesim.cli import main\n"
        "try:\n"
        "    main(['--help'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0\n"
        "else:\n"
        "    raise AssertionError('--help did not exit')\n"
    ),
    "engine_names_accessed": (
        "import dtn_tradesim\n"
        "dtn_tradesim.run_study, dtn_tradesim.write_report\n"
    ),
}


def loaded_engine_modules(probe: str, tmp_path) -> list[str]:
    config = tmp_path / "study.cfg"
    config.write_text("relay_count=4\n")
    code = (
        "import json, sys\n"
        + PROBES[probe]
        + f"print(json.dumps([m for m in {ENGINE!r} if m in sys.modules]))\n"
    )
    src = os.path.dirname(os.path.dirname(dtn_tradesim.__file__))
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(config)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("probe", ["import_and_load_config", "validate", "refused_run", "help"])
def test_config_side_entry_points_load_no_engine(probe, tmp_path):
    assert loaded_engine_modules(probe, tmp_path) == []


def test_engine_names_load_the_engine_on_first_access(tmp_path):
    assert loaded_engine_modules("engine_names_accessed", tmp_path) == ENGINE
