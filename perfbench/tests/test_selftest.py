"""Self-test of the benchmark: tiny inputs, every metric, every check.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import counts  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*argv, cwd=ROOT):
    """Run the benchmark of the tree at ``cwd``, the way BENCHMARK.json says."""
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *map(str, argv)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr + proc.stdout
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return {
        w: result(bench("--workload", w, "--seed", 3, "--seconds", 1, "--trace", 1, "--small"))
        for w in WORKLOADS
    }


def values(outcome) -> dict:
    return {name: metric["value"] for name, metric in outcome["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_all_present(workload):
    out = result(bench("--workload", workload, "--seed", 3, "--seconds", 1,
                       "--trace", 0, "--small"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_per_layer_metrics_present_and_reached(traced):
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for out in traced.values():
        assert out["correct"]
        assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    never = [name for name in expected
             if name != "trace.overhead_pct" and not name.endswith(".fail")
             and all(values(out)[name] == 0 for out in traced.values())]
    assert never == []


def test_traced_counts(traced):
    prep, synth, pipe = (values(traced[w]) for w in ("prep", "synth", "pipeline"))
    assert prep["model.init_weights.calls"] == 0
    assert synth["model.init_weights.calls"] == 1
    assert pipe["model.init_weights.calls"] == pipe["trace.units"]
    # one mel per prep utterance; stats adds one STFT, features two
    assert prep["features.stft_magnitude.calls"] == 3 * prep["features.mel_spectrogram.calls"]
    assert pipe["features.stft_magnitude.calls"] == 2 * pipe["trace.units"]
    assert synth["features.stft_magnitude.calls"] == 0
    assert synth["prng.draws"] == pipe["prng.draws"] / pipe["trace.units"]


def test_traced_counts_repeat(traced):
    again = result(bench("--workload", "pipeline", "--seed", 3, "--seconds", 1,
                         "--trace", 1, "--small"))

    def exact(out):
        return {k: v for k, v in values(out).items()
                if not k.endswith((".s", "self_s", "_pct", "per_s"))}

    assert exact(again) == exact(traced["pipeline"])


def test_refuses_to_run_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "prep", "--seed", 1, "--seconds", 1, "--trace", 0,
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_failed_check_fails_the_run(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for tree in ("src", "perfbench"):
        shutil.copytree(ROOT / tree, tmp_path / tree,
                        ignore=shutil.ignore_patterns("__pycache__"))
    reference = tmp_path / "perfbench" / "reference.json"
    wrong = json.loads(reference.read_text(encoding="utf-8"))
    wrong["synth"][0] += 1.0
    reference.write_text(json.dumps(wrong), encoding="utf-8")
    proc = bench("--workload", "synth", "--seed", 3, "--seconds", 1, "--trace", 0,
                 "--small", cwd=tmp_path)
    assert proc.returncode == 1
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"] is False and out["failed"] == 1
    assert "FAILED reference: checksum" in proc.stdout


def test_checks_reject_corrupted_mel(tmp_path):
    def write(path, array):
        array = np.asarray(array, dtype="<f8")
        header = b"XLF1" + np.array([array.ndim, *array.shape], dtype="<u4").tobytes()
        path.write_bytes(header + array.tobytes())

    mel = np.zeros((10, checks.N_MELS))
    for kind in checks.FORWARD_OUTPUTS:
        write(tmp_path / f"u.{kind}.xlf", mel if kind == "mel_pred" else np.zeros(3))
    assert checks.check_pipeline(tmp_path, "u", 10)[0] is None

    write(tmp_path / "u.mel_pred.xlf", mel[:-1])  # truncated mel
    assert "shape" in checks.check_pipeline(tmp_path, "u", 10)[0]
    nan_mel = mel.copy()
    nan_mel[3, 7] = np.nan
    write(tmp_path / "u.mel_pred.xlf", nan_mel)
    assert "non-finite" in checks.check_pipeline(tmp_path, "u", 10)[0]
    path = tmp_path / "u.mel_pred.xlf"
    write(path, mel)
    path.write_bytes(path.read_bytes()[:-8])  # truncated file
    with pytest.raises(ValueError):
        checks.check_pipeline(tmp_path, "u", 10)


def test_prep_check_rejects_bad_tracks():
    good = {
        "mel": np.zeros((5, checks.N_MELS)), "energy": np.ones(5), "pitch": np.zeros(5),
        "energy_avg": np.ones(2), "pitch_avg": np.zeros(2), "energy_q": np.array([0.0, 255.0]),
    }
    assert checks._prep_problem(good, 2) is None
    assert checks._prep_problem({**good, "pitch": np.zeros(4)}, 2)
    assert checks._prep_problem({**good, "energy_q": np.array([0.0, 256.0])}, 2)
    assert checks._prep_problem(good, 3)


def test_checksum_tolerance():
    arrays = [np.linspace(-1.0, 1.0, 1000)]
    want = checks.checksum(arrays)
    reordered = checks.checksum([arrays[0] * (1 + 4e-12)])
    wrong = checks.checksum([arrays[0] * (1 + 1e-6)])
    ok = [abs(g - w) <= checks.CHECKSUM_RTOL * want[1] for g, w in zip(reordered, want)]
    bad = [abs(g - w) <= checks.CHECKSUM_RTOL * want[1] for g, w in zip(wrong, want)]
    assert all(ok) and not all(bad)


def test_computed_counts_match_the_model():
    from xling.model import ModelConfig, parameter_shapes

    cfg = ModelConfig(n_ipa_symbols=54, n_speakers=8)
    expected = sum(int(np.prod(shape)) for _, shape in parameter_shapes(cfg))
    assert counts.parameter_count(cfg) == expected
    assert round(expected / 1e6, 1) == 41.1
    trace = (("encoder", (12, 256)), ("aggregate", (5, 256)), ("decoder", (0, 256)))
    got = counts.forward_counts(cfg, trace)
    assert got["model.decoder_frames"] == 0 and got["model.encoder_rows"] == 12
    attention = 4 * (4 * 2 * 12 * 256 * 256 + 4 * 12 * 12 * 256)
    assert got["model.attn_flops"] == attention


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ("1", "cli.features", 0.0, 10.0, None, None, False),
        ("2", "features.mel_spectrogram", 1.0, 4.0, "1", None, False),
        ("3", "features.mel_spectrogram", 3.0, 6.0, "1", None, True),  # overlaps: another process
    ]
    table = tracer.summarize(spans)
    assert table["cli.features"]["self_s"] == pytest.approx(5.0)
    assert table["features.mel_spectrogram"]["calls"] == 2
    assert table["features.mel_spectrogram"]["fail"] == 1
