"""The package namespace: each name has one import path, its module."""

import json
import os
import subprocess
import sys
from pathlib import Path

import dprl

MODULES = ["balltree", "baselines", "bounds", "continuous", "discrete", "envs",
           "estimation", "evaluation", "mdp", "solvers"]

# What a fresh `import dprl` binds: public name -> module name, or the value's type.
_PROBE = """
import json, types, dprl
print(json.dumps({"file": dprl.__file__, "all": hasattr(dprl, "__all__"), "public": {
    n: v.__name__ if isinstance(v, types.ModuleType) else type(v).__name__
    for n, v in vars(dprl).items() if not n.startswith("_")}}))
"""


def test_import_binds_each_module_and_nothing_else():
    # In a new interpreter, so submodules imported by other tests cannot set
    # the attributes.  The benchmark reads dprl.<module>.<name> this way.
    source = str(Path(dprl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([source, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env, capture_output=True,
                         text=True, check=True)
    probe = json.loads(out.stdout)
    assert Path(probe["file"]).resolve() == Path(dprl.__file__).resolve()
    assert probe["public"] == {name: f"dprl.{name}" for name in MODULES}
    assert not probe["all"]
