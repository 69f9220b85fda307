import os
import subprocess
import sys
from pathlib import Path

import xling
from xling.minicorpus import generate


def tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_module_main_writes_the_tree_generate_writes(tmp_path):
    src = str(Path(xling.__file__).parent.parent)
    result = subprocess.run([sys.executable, "-m", "xling.minicorpus", str(tmp_path / "cli"),
                             "--scale", "3600", "--seed", "1"], capture_output=True, text=True,
                            timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "")
    written = tree(tmp_path / "cli")
    assert "d123.spec" in written
    assert written == tree(generate(tmp_path / "library", scale=3600, seed=1))
