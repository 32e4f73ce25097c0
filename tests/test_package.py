import os
import subprocess
import sys
import types
from pathlib import Path

import relayec

ROOT = Path(__file__).resolve().parents[1]


def test_all_matches_exports():
    # a name deleted from the package must leave __all__ too, and the reverse
    public = {name for name, v in vars(relayec).items() if not name.startswith("_") and not isinstance(v, types.ModuleType)}
    assert set(relayec.__all__) == public


def test_demos_run():
    # the demos import the package as a user would, so a refactor that drops
    # a name they use fails here instead of silently
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for demo in demos:
        # a demo that hangs fails here, named by the timeout's command line
        run = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, f"{demo.name}: {run.stderr}"
        assert run.stdout.strip(), demo.name
