"""The package root: each public name has one import path, its submodule."""

import inspect
import json
import subprocess
import sys
from pathlib import Path

import gridtext

ROOT = Path(__file__).resolve().parents[1]

# Run in a fresh interpreter, so that no module the test session has already
# imported can stand in for one that ``import gridtext`` fails to load.
_PROBE = """
import json, sys
sys.path[:0] = sys.argv[1:]
import gridtext
loaded = sorted(name for name in sys.modules if name.startswith("gridtext."))
from tracer import TRACED
print(json.dumps({"loaded": loaded, "traced": sorted({m for m, _ in TRACED})}))
"""


def test_import_gridtext_loads_every_traced_module():
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, str(ROOT / "src"), str(ROOT / "bench")],
        capture_output=True, text=True, check=True,
    ).stdout
    probe = json.loads(out)
    assert probe["traced"]
    missing = [m for m in probe["traced"] if f"gridtext.{m}" not in probe["loaded"]]
    assert missing == []


def test_package_root_reexports_no_name():
    names = [n for n, v in vars(gridtext).items()
             if not n.startswith("_") and not inspect.ismodule(v)]
    assert names == []
