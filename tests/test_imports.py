"""Every name a module of the package imports is used in that module, only
free text is read outside :mod:`xling.textio`'s record rules, and only
:mod:`xling.audio` opens WAVs and refuses empty audio."""

import ast
from pathlib import Path

import xling


def unused_imports(source: str) -> list:
    """Names bound by imports in ``source`` that nothing reads; a name
    listed in ``__all__`` is exported, so it counts as read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = "import os, numpy.linalg\nfrom x import a, b as c\n__all__ = ['a']\nos.sep\n"
    assert unused_imports(source) == ["c", "numpy"]


def test_no_module_imports_a_name_it_never_uses():
    unused = [f"{path.name}: {name}"
              for path in sorted(Path(xling.__file__).parent.glob("*.py"))
              for name in unused_imports(path.read_text(encoding="utf-8"))]
    assert unused == []


def test_cli_import_loads_no_process_or_hash_module():
    import os
    import subprocess
    import sys

    src = str(Path(xling.__file__).parent.parent)
    # numpy loads ctypes itself, so "ctypes" is reported when the import opens
    # a C library through it: the allocator policy belongs to cli.main alone
    code = ("import sys, ctypes, numpy; opened = []; "
            "ctypes.CDLL = lambda *args, **kwargs: opened.append(args); "
            "import xling.cli; "
            "print(' '.join(m for m in ('multiprocessing', 'concurrent.futures.process', "
            "'hashlib') if m in sys.modules), 'ctypes' if opened else '')")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)
    assert result.stdout.split() == []


def test_one_module_owns_the_thread_pool():
    owners = [path.name for path in sorted(Path(xling.__file__).parent.glob("*.py"))
              if "ThreadPoolExecutor" in path.read_text(encoding="utf-8")]
    assert owners == ["model.py"]


def functions_naming(source: str, is_use) -> list:
    """The functions of ``source`` that hold a node for which ``is_use``
    holds, as dotted paths; ``<module>`` for one outside any."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if where == "<module>" else f"{where}.{child.name}")
                continue
            if is_use(child):
                found.add(where)
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def read_text_users(source: str) -> list:
    """The functions of ``source`` that name a ``read_text`` (textio's or
    pathlib's)."""
    return functions_naming(source, lambda node: (
        isinstance(node, ast.Name) and node.id == "read_text"
        or isinstance(node, ast.Attribute) and node.attr == "read_text"))


def wave_open_users(source: str) -> list:
    """The functions of ``source`` that name ``wave.open``."""
    return functions_naming(source, lambda node: (
        isinstance(node, ast.Attribute) and node.attr == "open"
        and isinstance(node.value, ast.Name) and node.value.id == "wave"))


def callers(source: str, name: str) -> list:
    """The functions of ``source`` that call ``name``, bare or as an attribute."""
    return functions_naming(source, lambda node: (
        isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and node.func.id == name
            or isinstance(node.func, ast.Attribute) and node.func.attr == name)))


def test_read_text_users_are_found():
    source = ("from t import read_text\nx = read_text('a')\n"
              "class C:\n    def m(self, p):\n        return p.read_text()\n"
              "def f():\n    return map(read_text, [])\n")
    assert read_text_users(source) == ["<module>", "C.m", "f"]


def test_only_free_text_is_read_outside_textio():
    """A record format is read through ``textio.records``, whose line rules
    (comments, blank lines, fields) a bare ``read_text`` skips; only a file
    of free text, a ``g2p --text-file`` or a corpus transcript, is read whole."""
    users = [f"{path.stem}.{name}"
             for path in sorted(Path(xling.__file__).parent.glob("*.py"))
             if path.name != "textio.py"
             for name in read_text_users(path.read_text(encoding="utf-8"))]
    assert users == ["cli._cmd_g2p", "corpus._scan_speaker"]


def test_wave_open_users_are_found():
    source = ("import wave\nwave.open('a')\nopen('b')\n"
              "def f(p):\n    return p.open()\n"
              "def g(w):\n    with wave.open(w, 'wb'):\n        pass\n")
    assert wave_open_users(source) == ["<module>", "g"]


def test_only_the_wav_rule_opens_wavs():
    """Every WAV is read through ``audio._open_wav``, whose one rule both
    readers apply; ``audio.write_wav`` is the one writer."""
    opened = [f"{path.stem}.{name}"
              for path in sorted(Path(xling.__file__).parent.glob("*.py"))
              for name in wave_open_users(path.read_text(encoding="utf-8"))]
    assert opened == ["audio._open_wav", "audio.write_wav"]


def test_empty_audio_makers_are_found():
    source = ("from e import EmptyAudioError\nraise EmptyAudioError('a')\n"
              "class C:\n    def m(self):\n        raise errors.EmptyAudioError('b')\n"
              "def f():\n    return EmptyAudioError\n"
              "def g():\n    made = [EmptyAudioError('c')]\n")
    assert callers(source, "EmptyAudioError") == ["<module>", "C.m", "g"]


def test_empty_audio_is_refused_where_audio_enters():
    """Audio enters as a WAV, through ``audio._open_wav``, or as samples,
    through ``AudioBuffer``; each refuses empty audio, so nothing else has to."""
    makers = [f"{path.stem}.{name}"
              for path in sorted(Path(xling.__file__).parent.glob("*.py"))
              for name in callers(path.read_text(encoding="utf-8"), "EmptyAudioError")]
    assert makers == ["audio.AudioBuffer.__post_init__", "audio._open_wav"]


def test_quantizer_makers_are_found():
    source = ("from f import QuantizerConfig\nq = QuantizerConfig(1.0, 2.0)\n"
              "class C:\n    def m(self):\n        return features.QuantizerConfig(1.0, 2.0)\n"
              "def f() -> QuantizerConfig:\n    return QuantizerConfig\n")
    assert callers(source, "QuantizerConfig") == ["<module>", "C.m"]


def test_one_home_for_the_quantizer_rules():
    """The range, bin and scale rules run through ``cli._quantizer`` at config
    load, in ``stats`` before it writes and in ``features --stats``, so
    ``features --stats`` accepts every range ``stats`` writes."""
    makers = [f"{path.stem}.{name}"
              for path in sorted(Path(xling.__file__).parent.glob("*.py"))
              for name in callers(path.read_text(encoding="utf-8"), "QuantizerConfig")]
    assert makers == ["cli._quantizer"]
