"""Golden digests: outputs pinned across changes, not only within a run.

``golden_digests.txt`` holds the sha256 of every output of three flows:

* prep: ``manifest → stats → features --manifest --stats`` over the session
  ``minicorpus`` (d1+d2+d3, scale 100, seed 0).  ``manifest.txt`` names
  the corpus by its absolute path, so it is hashed with that root replaced
  by ``<root>``;
* unit: the first d2 utterance through ``g2p → features --wav --alignment
  → forward --seed 5`` at the paper config, teacher-forced;
* inference: ``g2p`` of a mixed text, then ``forward --seed 11`` at the
  paper config.

The flows run in a fresh interpreter at ``OPENBLAS_NUM_THREADS=1``,
because ``forward``'s bits depend on the BLAS thread count.  They also
depend on the Python, numpy and BLAS builds, which the file records in its
``# env`` line: where the running environment differs, the test skips with
a reason naming both, since another build may move the bits legitimately.
A change that moves output bits on purpose records new digests with
``PYTHONPATH=src python tests/test_golden.py --record`` and says so in
CHANGES.md.
"""

import hashlib
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

DIGESTS = Path(__file__).with_name("golden_digests.txt")
SRC = Path(__file__).resolve().parent.parent / "src"


def environment() -> str:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = "unknown"
    return f"python={platform.python_version()} numpy={np.__version__} blas={blas}"


def flow_digests(minicorpus: Path, work: Path) -> list:
    """``<sha256>  <flow>/<file>`` for every output of the three flows."""
    from xling.cli import main

    def run(*argv):
        assert main([str(a) for a in argv]) == 0, argv

    prep, unit, inference = work / "prep", work / "unit", work / "inference"
    run("manifest", "--spec", minicorpus / "d123.spec", "--roots", minicorpus, "--out", prep)
    run("stats", "--manifest", prep / "manifest.txt", "--out", prep, "--jobs", 2)
    run("features", "--manifest", prep / "manifest.txt", "--stats", prep / "stats.txt",
        "--out", prep, "--jobs", 2)

    wav = sorted((minicorpus / "d2_enm").glob("*.wav"))[0]
    run("g2p", "--text-file", wav.with_suffix(".txt"), "--out", unit)
    run("features", "--wav", wav, "--alignment", wav.with_suffix(".align"), "--out", unit)
    run("forward", "--phonemes", unit / f"{wav.stem}.phn", "--seed", 5,
        "--alignment", wav.with_suffix(".align"),
        "--pitch-avg", unit / f"{wav.stem}.pitch_avg.xlf",
        "--energy-avg", unit / f"{wav.stem}.energy_avg.xlf", "--out", unit)

    run("g2p", "--text", "我 在 用 mixed speech", "--out", inference)
    run("forward", "--phonemes", inference / "text.phn", "--seed", 11, "--out", inference)

    lines = []
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path == prep / "manifest.txt":
            data = data.replace(str(minicorpus).encode(), b"<root>")
        lines.append(f"{hashlib.sha256(data).hexdigest()}  {path.relative_to(work)}")
    return lines


def fresh_digests(minicorpus: Path, work: Path) -> list:
    """:func:`flow_digests` from a fresh interpreter at one BLAS thread."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    result = subprocess.run([sys.executable, __file__, str(minicorpus), str(work)],
                            capture_output=True, text=True, env=env, timeout=600)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_outputs_match_golden_digests(minicorpus, tmp_path):
    recorded = DIGESTS.read_text(encoding="utf-8").splitlines()
    env = next(line for line in recorded if line.startswith("# env "))[len("# env "):]
    if env != environment():
        pytest.skip(f"digests recorded at {env}, running at {environment()}")
    expected = [line for line in recorded if not line.startswith("#")]
    got = fresh_digests(minicorpus, tmp_path / "work")
    assert sorted(set(got).symmetric_difference(expected)) == []


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        with tempfile.TemporaryDirectory() as tmp:
            from xling.minicorpus import generate

            lines = fresh_digests(generate(Path(tmp) / "minicorpus"), Path(tmp) / "work")
        DIGESTS.write_text(f"# sha256 of every output of the flows in {Path(__file__).name}\n"
                           f"# env {environment()}\n" + "\n".join(lines) + "\n",
                           encoding="utf-8")
    else:
        print("\n".join(flow_digests(Path(sys.argv[1]), Path(sys.argv[2]))))
