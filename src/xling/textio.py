"""Line-record text files and atomic output paths.

Every text format of this package (lexicons, IPA inventory, ``.phn``,
alignment, manifest, dataset spec, model and pipeline configs, stats)
shares these line rules, applied by :func:`records` and nowhere else:
files are UTF-8 and hold no NUL byte, and :func:`read_text` reports a
byte that breaks either rule as a :class:`ParseError` at ``path:line``;
one leading byte order mark is no content, so it neither starts the first
record nor hides a ``#`` comment;
``\\n``, ``\\r\\n`` and ``\\r`` end a line, numbered from 1; each line is
stripped, and blank lines and ``#`` comment lines are skipped; the rest
splits on ``sep`` (whitespace runs when ``None``) at most ``maxsplit``
times into stripped fields; a malformed line raises :class:`ParseError` at
``path:line``.

The ``key=value`` formats (model config, pipeline config, stats) are read
by :func:`read_keys` and nowhere else: each record splits at its first
``=``, and its caller's ``kinds`` maps every allowed key to the type its
value is read as.  A key outside ``kinds``, a key set twice, or a value
its type rejects raises :class:`ParseError` at ``path:line``.

Writing mirrors reading: :func:`write_records` joins each row's fields
with ``sep`` (a space for ``None``) into one ``\\n``-ended line, and a row
that :func:`records` would not read back as the same fields (a field with
``sep``, a line break or a NUL, surrounding whitespace, a leading ``#``, a
blank line, a byte order mark that would start the file) raises
:class:`ParseError` at ``path`` before anything is written.
Every output file of the package goes through :func:`atomic_path`.
"""

import os
from contextlib import contextmanager, suppress
from pathlib import Path

from .errors import ParseError


def records(path, sep=None, maxsplit=-1, n_fields=None):
    """Yield ``(line_no, fields)`` for each record line of ``path``."""
    text = read_text(path)
    for line_no, line in enumerate(text.split("\n"), start=1):
        fields = _fields(line, sep, maxsplit)
        if fields is None:
            continue
        if n_fields is not None and len(fields) != n_fields:
            raise ParseError(f"expected {n_fields} fields split by {sep!r}, "
                             f"got {len(fields)}", path=path, line=line_no)
        yield line_no, fields


def read_keys(path, kinds: dict) -> dict:
    """``{key: kinds[key](value)}`` over the ``key=value`` records of ``path``."""
    values = {}
    for line_no, (key, value) in records(path, "=", 1, n_fields=2):
        if key not in kinds or key in values:
            problem = "repeated" if key in values else "unknown"
            raise ParseError(f"{problem} key {key!r}", path=path, line=line_no)
        try:
            values[key] = kinds[key](value)
        except ValueError as exc:
            raise ParseError(f"{key}: expected {kinds[key].__name__}, got {value!r}",
                             path=path, line=line_no) from exc
    return values


def read_text(path) -> str:
    """The UTF-8 text of ``path`` with every line break read as ``\\n``,
    less one leading byte order mark.

    A byte sequence that is not UTF-8, or a NUL byte, raises
    :class:`ParseError` at the ``path:line`` that holds it; its offset
    counts the file's bytes, the mark included.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: byte {data[exc.start]:#04x} at offset {exc.start}",
                         path=path, line=_line_at(data, exc.start)) from exc
    if "\0" in text:
        # no path or name of any format may hold one: the OS refuses it
        offset = data.index(b"\0")
        raise ParseError(f"NUL byte at offset {offset}", path=path, line=_line_at(data, offset))
    return text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")


def _line_at(data: bytes, offset: int) -> int:
    """The 1-based line of ``data`` that holds byte ``offset``."""
    head = data[:offset]
    return head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1


def _fields(line: str, sep, maxsplit):
    """The fields :func:`records` reads from ``line``; None if it skips it."""
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    return [field.strip() for field in line.split(sep, maxsplit)]


def write_records(path, rows, sep=None, maxsplit=-1, header=None) -> None:
    """Write each row of str fields as one line; ``header`` as a ``# `` line."""
    lines = [] if header is None else [f"# {header}"]
    for row in rows:
        line = (sep or " ").join(row)
        if (any(c in line for c in "\n\r\0") or _fields(line, sep, maxsplit) != list(row)
                or not lines and line.startswith("\ufeff")):
            raise ParseError(f"row {list(row)!r} would not read back", path=path)
        lines.append(line)
    write_text(path, "".join(line + "\n" for line in lines))


def write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8 through :func:`atomic_path`."""
    with atomic_path(path) as tmp:
        tmp.write_text(text, encoding="utf-8")


def cast(kind, value: str, path, line_no):
    """``kind(value)``, reporting a bad value as a ParseError at ``path:line``."""
    try:
        return kind(value)
    except ValueError as exc:
        raise ParseError(f"expected {kind.__name__}, got {value!r}",
                         path=path, line=line_no) from exc


@contextmanager
def atomic_path(path):
    """Yield a temp path beside ``path``, moved over ``path`` on success.

    The temp name is unique per process and per call, so concurrent writers
    never share it; on any failure it is removed and ``path`` is untouched.
    An ``OSError`` on the temp file is raised again naming ``path``, the
    file the caller asked for, not a temp name it never gave.
    """
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.{os.urandom(8).hex()}.tmp")
    try:
        yield tmp
        os.replace(tmp, target)
    except BaseException as exc:
        with suppress(FileNotFoundError, NotADirectoryError):  # no temp was made
            tmp.unlink()
        if isinstance(exc, OSError) and exc.filename in (tmp, str(tmp)):
            raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise
