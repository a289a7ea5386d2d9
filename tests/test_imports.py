"""What importing the package and running a command run.

``import dblnerve`` puts every module but ``cli`` in ``sys.modules``, to run
on its first attribute access.  Until then a module's type is not
``types.ModuleType``; ``type`` reads no attribute, so asking runs nothing.
Each check of what ran starts a fresh interpreter, where nothing has.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dblnerve

ROOT = Path(__file__).parent.parent
SUBMODULES = {"cat", "dblcat", "errors", "expr", "io", "nerve", "presentation", "pseudohom",
              "shapes", "standard", "tensor", "twocat", "whi"}

# Runs the CLI on argv in-process and prints, for each module in
# sys.modules under dblnerve, whether it ran.
PROBE = """
import contextlib, io, json, sys, types
import dblnerve
if sys.argv[1:]:
    import dblnerve.cli
    with contextlib.redirect_stdout(io.StringIO()):
        dblnerve.cli.main(sys.argv[1:])
print(json.dumps({name.split(".", 1)[1]: type(module) is types.ModuleType
                  for name, module in sys.modules.items() if name.startswith("dblnerve.")}))
"""


def ran(*argv):
    """For each dblnerve module in sys.modules of a fresh interpreter that
    imported the package and ran the CLI on ``argv``: whether it ran."""
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_importing_the_package_registers_every_module_and_runs_none():
    assert ran() == dict.fromkeys(SUBMODULES, False)


@pytest.mark.parametrize("argv, runs, runs_not", [
    (["validate", "corpus/hsim-iso.json"], {"io", "dblcat"},
     {"nerve", "tensor", "pseudohom", "shapes", "standard", "presentation"}),
    (["fibrancy", "corpus/h-iso.json"], {"nerve", "whi"}, {"tensor", "pseudohom", "shapes"}),
    (["nerve", "corpus/free-square.json", "--m", "1", "--k", "1", "--n", "0", "--compare"],
     {"nerve", "tensor", "presentation"}, {"pseudohom"}),
    (["segal", "corpus/h-iso.json", "--k", "1"], {"pseudohom", "shapes", "standard"}, set()),
])
def test_a_command_runs_only_the_modules_it_uses(argv, runs, runs_not):
    modules = ran(*argv)
    assert set(modules) == SUBMODULES | {"cli"}
    assert {name for name, done in modules.items() if done} >= runs | {"cli"}
    assert not any(modules[name] for name in runs_not)


def test_each_exported_name_is_the_attribute_of_its_module():
    assert len(dblnerve.__all__) == 76
    for name in dblnerve.__all__:
        value = getattr(dblnerve, name)
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_the_package_lists_its_names_and_modules():
    assert set(dir(dblnerve)) >= set(dblnerve.__all__) | SUBMODULES
    for name in SUBMODULES:
        assert getattr(dblnerve, name) is sys.modules[f"dblnerve.{name}"]
    with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
        dblnerve.nosuch  # noqa: B018


def test_a_star_import_binds_the_exported_names_only():
    namespace = {}
    exec("import io\nfrom dblnerve import *", namespace)
    assert namespace["io"] is sys.modules["io"]
    assert set(namespace) - {"__builtins__", "io"} == set(dblnerve.__all__)
    assert not SUBMODULES & set(dblnerve.__all__)
