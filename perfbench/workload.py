"""One process of the benchmark: make a workload's inputs, or set it up and run it.

``run.py`` starts every role below in a fresh interpreter, with the
checkout's ``src`` on ``PYTHONPATH``, so the package import is part of
set-up time.  Each role writes one JSON result file.

    workload.py prepare --workload W --work DIR --seed N [--small]
        Generate the inputs (minicorpus, texts) and ``DIR/plan.json``.
        Nothing here is timed.
    workload.py setup   --workload W --work DIR --spawned T --result FILE
        Set up, report seconds since ``T`` (the parent's CLOCK_MONOTONIC
        reading just before it started this process), and exit.
    workload.py measure --workload W --work DIR --spawned T --result FILE --seconds S
        Set up, then run units in plan order (cycling) until S seconds
        have passed; check every output; then run the reference unit and
        compare its checksum with ``reference.json``.
    workload.py trace   --workload W --work DIR --spawned T --result FILE
        Install the span tracer, set up, run every unit of the plan once,
        and write spans to ``DIR/trace``.  The work is fixed, so counts
        repeat exactly for a given seed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

WEIGHT_SEED = 5  # model weights are not part of the workload's inputs
N_SPEAKERS = 8
HOP_S = 0.01  # mel frame hop (FeatureConfig default hop_ms)
# minicorpus scales: prep uses a quarter of the default d1+d2+d3 corpus
# (144 s of audio, about 41 utterances) so that one run holds about ten
# passes; pipeline uses the default d2 (72 s of audio, about 23 utterances)
PREP_SCALE = 400
PIPELINE_SCALE = 100
SMALL_SCALE = 3600  # a few one-second utterances, for the self-test
REFERENCE_SEED = 0
SYNTH_MIN_WORDS, SYNTH_MAX_WORDS = 4, 40
SYNTH_TEXTS = 185  # five strata of every word count in [4, 40]
SMALL_SYNTH_TEXTS = 6
REFERENCE_TEXT = "我 在 用 mixed speech 你好 world"
REFERENCE_SPEAKER = 3


class UnitFailed(Exception):
    pass


def _cli(*argv) -> None:
    from xling import cli  # looked up per call: the tracer may have rebound it

    code = cli.main([str(a) for a in argv])
    if code != 0:
        raise UnitFailed(f"xling {argv[0]} exited {code}")


# --------------------------------------------------------------- prepare

def prepare(workload: str, work: Path, seed: int, small: bool) -> dict:
    from xling.minicorpus import generate

    scale = SMALL_SCALE if small else (PREP_SCALE if workload == "prep" else PIPELINE_SCALE)
    if workload == "synth":
        from xling.lexicon import Lexicon

        count = SMALL_SYNTH_TEXTS if small else SYNTH_TEXTS
        units = _synth_texts(Lexicon.load_default(), seed, count, small)
        reference = {"id": "reference", "text": REFERENCE_TEXT, "speaker": REFERENCE_SPEAKER}
        return {"units": units, "reference": reference}

    corpus = generate(work / "corpus", scale=scale, seed=seed)
    ref_corpus = generate(work / "ref_corpus", scale=SMALL_SCALE, seed=REFERENCE_SEED)
    if workload == "prep":
        return {
            "units": [_prep_unit("pass", corpus)],
            "reference": _prep_unit("reference", ref_corpus),
        }
    model_cfg = work / "model.cfg"
    _model_config().to_file(model_cfg)
    return {
        "model_cfg": str(model_cfg),
        "units": _pipeline_units(corpus),
        "reference": _pipeline_units(ref_corpus)[0] | {"id": "reference"},
    }


def _model_config():
    from xling.lexicon import Lexicon, inventory_ids
    from xling.model import ModelConfig

    n_symbols = len(inventory_ids(Lexicon.load_default()))
    return ModelConfig(n_ipa_symbols=n_symbols, n_speakers=N_SPEAKERS)


def _manifest(corpus: Path, spec_name: str) -> list:
    from xling.corpus import DatasetSpec, build_manifest, parse_alignment

    entries = build_manifest(DatasetSpec.load(corpus / spec_name), [corpus])
    return [(e, parse_alignment(e.alignment_path).frame_durations) for e in entries]


def _prep_unit(unit_id: str, corpus: Path) -> dict:
    manifest = _manifest(corpus, "d123.spec")
    return {
        "id": unit_id,
        "corpus": str(corpus),
        "expected": {e.utt_id: len(durations) for e, durations in manifest},
        "utts": len(manifest),
        "audio_s": sum(e.duration_sec for e, _ in manifest),
        "phonemes": sum(len(durations) for _, durations in manifest),
    }


def _pipeline_units(corpus: Path) -> list:
    manifest = _manifest(corpus, "d2.spec")
    # alternate speakers, so a run that ends part-way still covers both
    order = {}
    for e, _ in manifest:
        order.setdefault(e.speaker_id, []).append(e)
    rank = {e.utt_id: (i, s) for s, es in enumerate(order.values()) for i, e in enumerate(es)}
    manifest.sort(key=lambda pair: rank[pair[0].utt_id])
    return [
        {
            "id": e.utt_id,
            "text": e.text,
            "wav": e.audio_path,
            "alignment": e.alignment_path,
            "utts": 1,
            "audio_s": e.duration_sec,
            "phonemes": len(durations),
            "frames": sum(durations),
        }
        for e, durations in manifest
    ]


def _synth_texts(lexicon, seed: int, count: int, small: bool) -> list:
    """Mixed CN/EN texts; every word count in the range appears equally often.

    Word counts are stratified (shuffled within each block that covers the
    range once), so seeds change the words and their order but not the
    length mix.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    hi = SYNTH_MIN_WORDS + 4 if small else SYNTH_MAX_WORDS
    span = list(range(SYNTH_MIN_WORDS, hi + 1))
    lengths = []
    while len(lengths) < count:
        lengths.extend(int(n) for n in rng.permutation(span))
    cn_words = sorted(lexicon.cn_entries)
    en_words = [w.lower() for w in sorted(lexicon.en_entries)]
    units = []
    for i, n_words in enumerate(lengths[:count]):
        words = [
            str(rng.choice(cn_words)) if rng.random() < 0.5 else str(rng.choice(en_words))
            for _ in range(n_words)
        ]
        units.append({"id": f"text{i:03d}", "text": " ".join(words), "speaker": i % N_SPEAKERS})
    return units


# ---------------------------------------------------------- workloads

class Prep:
    """manifest -> stats -> features --stats over d1+d2+d3, default --jobs."""

    def __init__(self, plan, work: Path):
        self.work = work

    def run(self, unit) -> dict:
        out = self.work / "out" / unit["id"]
        corpus = unit["corpus"]
        _cli("manifest", "--spec", f"{corpus}/d123.spec", "--roots", corpus,
             "--out", out / "manifest")
        _cli("stats", "--manifest", out / "manifest" / "manifest.txt", "--out", out / "stats")
        _cli("features", "--manifest", out / "manifest" / "manifest.txt",
             "--out", out / "features", "--stats", out / "stats" / "stats.txt")
        return {}

    def check(self, unit, result) -> tuple[list, list, int]:
        """(problems, arrays for the checksum, failed utterance count)."""
        import checks

        out = self.work / "out" / unit["id"]
        try:
            problems, arrays = checks.check_prep(out, unit["expected"])
        finally:
            shutil.rmtree(out, ignore_errors=True)
        failed = {utt for utt, _ in problems}
        if failed & {"manifest", "stats"}:
            failed = set(unit["expected"])
        return [f"{utt}: {detail}" for utt, detail in problems], arrays, len(failed)


class Pipeline:
    """g2p -> features --wav --alignment --jobs 1 -> teacher-forced forward."""

    def __init__(self, plan, work: Path):
        self.model_cfg = plan["model_cfg"]
        self.out = work / "out"

    def run(self, unit) -> dict:
        utt, out = unit["id"], self.out
        _cli("g2p", "--text", unit["text"], "--name", utt, "--out", out)
        _cli("features", "--wav", unit["wav"], "--alignment", unit["alignment"],
             "--utt-id", utt, "--out", out, "--jobs", 1)
        _cli("forward", "--phonemes", out / f"{utt}.phn", "--model-config", self.model_cfg,
             "--seed", WEIGHT_SEED, "--alignment", unit["alignment"],
             "--pitch-avg", out / f"{utt}.pitch_avg.xlf",
             "--energy-avg", out / f"{utt}.energy_avg.xlf", "--out", out)
        return {}

    def check(self, unit, result):
        import checks

        try:
            problem, arrays = checks.check_pipeline(self.out, unit["id"], unit["frames"])
        finally:
            for path in self.out.glob(f"{unit['id']}.*"):
                path.unlink()
        return ([problem] if problem else []), arrays, int(problem is not None)


class Synth:
    """Library calls in one process: text -> phonemes -> ids -> forward (Inference)."""

    def __init__(self, plan, work: Path):
        from xling import lexicon, model

        # functions are looked up on the modules per call: the tracer rebinds them
        self.lx, self.md = lexicon, model
        self.lexicon = lexicon.Lexicon.load_default()
        self.ids = lexicon.inventory_ids(self.lexicon)
        cfg = model.ModelConfig(n_ipa_symbols=len(self.ids), n_speakers=N_SPEAKERS)
        self.weights = model.init_weights(cfg, WEIGHT_SEED)

    def run(self, unit) -> dict:
        ps = self.lx.text_to_phoneme_sequence(unit["text"], self.lexicon)
        ids = [self.ids[symbol] for symbol in ps.ipa]
        out = self.md.forward(self.weights, ids, ps.lengths, unit["speaker"], self.md.Inference())
        return {"out": out, "phonemes": len(ps.ldp), "audio_s": out.mel_pred.shape[0] * HOP_S}

    def check(self, unit, result):
        import checks

        problem, arrays = checks.check_synth(result["out"])
        return ([problem] if problem else []), arrays, int(problem is not None)


WORKLOADS = {"prep": Prep, "pipeline": Pipeline, "synth": Synth}


def run_unit(workload, unit) -> dict:
    """Time one unit, then check its outputs outside the timed span."""
    start = time.perf_counter()
    try:
        result = workload.run(unit)
        error = None
    except Exception as exc:  # a failed unit is counted, not fatal
        result, error = {}, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    utts = unit.get("utts", 1)
    record = {
        "id": unit["id"],
        "s": seconds,
        "utts": utts,
        "audio_s": result.get("audio_s", unit.get("audio_s", 0.0)),
        "phonemes": result.get("phonemes", unit.get("phonemes", 0)),
    }
    if error is not None:
        record.update(failed=utts, problems=[error])
        return record
    try:
        problems, arrays, failed = workload.check(unit, result)
    except Exception as exc:
        problems, arrays, failed = [f"check raised {type(exc).__name__}: {exc}"], [], utts
    record.update(failed=failed, problems=problems[:5])
    record["arrays"] = arrays
    return record


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child (KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _versions() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        openblas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
    }


def _reference(workload, name: str, plan) -> list:
    import checks

    record = run_unit(workload, plan["reference"])
    problems = list(record["problems"])
    if not problems:
        problem = checks.checksum_problem(name, checks.checksum(record["arrays"]))
        if problem:
            problems.append(problem)
    return problems


def _strip(record) -> dict:
    record.pop("arrays", None)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("prepare", "setup", "measure", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--spawned", type=float)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--result", type=Path)
    args = parser.parse_args(argv)

    if args.role == "prepare":
        plan = prepare(args.workload, args.work, args.seed, args.small)
        (args.work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
        return 0

    plan = json.loads((args.work / "plan.json").read_text(encoding="utf-8"))
    tracer = None
    if args.role == "trace":
        import tracer as tracing

        tracer = tracing.Tracer(args.work / "trace")
        with tracer.span("import"):
            import xling.cli  # noqa: F401
        tracing.install(tracer, _hooks())
    else:
        import xling.cli  # noqa: F401
    workload = WORKLOADS[args.workload](plan, args.work)
    setup_s = time.monotonic() - args.spawned
    result = {"setup_s": setup_s}
    if args.role == "setup":
        args.result.write_text(json.dumps(result), encoding="utf-8")
        return 0

    records = []
    if tracer is None:
        deadline = time.perf_counter() + args.seconds
        index = 0
        while True:
            records.append(_strip(run_unit(workload, plan["units"][index % len(plan["units"])])))
            index += 1
            if time.perf_counter() >= deadline:
                break
    else:
        for unit in plan["units"]:
            tracer.utt = unit["id"]
            records.append(_strip(run_unit(workload, unit)))
        tracer.active = False
        tracer.dump()
    result["peak_rss_mb"] = _peak_rss_mb()
    result["records"] = records
    result["reference_problems"] = _reference(workload, args.workload, plan)
    result["versions"] = _versions()
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


def _hooks() -> dict:
    """Counters recorded at layer boundaries during a traced run."""
    import counts

    def draws(tracer, args, kwargs, result):
        tracer.count("prng.draws", int(result.size))

    def weight_bytes(tracer, args, kwargs, result):
        tracer.gauge("model.weight_bytes", sum(int(t.nbytes) for t in result.tensors.values()))

    def forward(tracer, args, kwargs, result):
        for key, value in counts.forward_counts(args[0].config, result.trace).items():
            tracer.count(key, value)

    def written(tracer, args, kwargs, result):
        tracer.count("tensorio.bytes_written", os.path.getsize(args[0]))

    return {
        "prng.splitmix64_fill": {"after": draws},
        "model.init_weights": {"after": weight_bytes},
        "model.forward": {"after": forward},
        "tensorio.write_tensor": {"after": written},
        "tensorio.write_sections": {"after": written},
    }


if __name__ == "__main__":
    raise SystemExit(main())
