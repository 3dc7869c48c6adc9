"""Dataset ingestion, splitting, windowing, and synthetic generation.

On-disk layout is three UTF-8 CSV files with headers and YYYY-MM-DD dates:

* ``observations.csv``: date, region, cases, susceptible, infected,
  recovered, then any number of extra channel columns;
* ``mobility.csv``: date, origin, destination, flow;
* ``population.csv``: region, population.

``population.csv`` defines the region universe and its order.  Floats are
written with 17 significant digits so a save/load round trip is exact.

``load_dataset`` decodes each file once, in one ``csv.reader`` loop that
checks each record as it reads it, so the first defect in file order is
the one raised, as a ``DataError`` naming the file and the line its
record starts on.  Days must be non-decreasing in both dated files;
within a day, rows may come in any order.  It rejects (never filling
anything in):

* a byte that is not UTF-8, a NUL byte;
* a bad header, a wrong column count (a blank line has none), an
  unparseable date or number (numbers as ``float()`` reads them);
* a region missing from ``population.csv``, or named twice there;
* a calendar gap between observation days, or a mobility date that is not
  an observation day;
* a duplicate row, a region missing from an observation day (reported on
  the row after that day, or on the last row) or a missing flow (reported
  on the last row);
* a non-finite value anywhere, a negative case, S/I/R count or flow, and a
  population that is not positive.

``load_dataset`` alone writes ``panel.bin`` beside the CSVs, a binary copy
of its own parse with the sha256 of each CSV's bytes, and returns it in
place of the parse only when it is of the current format, all three
digests match the files on disk, the crc32 of its manifest and body
matches and its arrays pass the loader's value rules.  Any other copy, or
none, means a parse, after which the copy is written again if no CSV
changed meanwhile: an edited CSV is parsed and checked once.
``save_dataset`` writes only the CSVs.

The copy is one binary frame, the container checkpoints use too
(``write_frame``, ``read_frame``): an 8-byte magic, the manifest's length
as a little-endian uint32, the manifest as UTF-8 JSON with sorted keys,
then the body, raw little-endian float64 values.

A ``Dataset`` holds the channels as one (N, L, C) block, ``values``, from
load to window, in the order this module owns (``CORE_CHANNELS``).
``day_range`` and ``chronological_split`` cut read-only views of the
panel's arrays, and ``windowize`` cuts every window into a ``WindowSet``,
the one window type every forward reads (a forecast's one-window set too),
whose observations, targets and mobility are read-only sliding views of the
segment: a training or scoring process holds each panel day once.
``WindowSet.batch`` of a slice (validation, ``evaluate``) is a set of views,
so nothing is gathered; a shuffled training batch asks with an index array
and gets a set of C-ordered copies.

The synthetic generator runs the mechanistic core day by day
(``metapop.trajectory``), so at zero observation noise the stored cases
are an exact fixed point of that loop given the true rates and flows.  The
forecaster's batched rollout kernel multiplies by ``1 / population`` where
the loop divides, so over 50 days of the default world it differs in
about half the entries, by about 1e-15 relative.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import zlib
from array import array
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from datetime import date as date_type, timedelta
from itertools import chain, product
from pathlib import Path

import numpy as np

from .domain import ConfigRangeError, check_ranges
from . import metapop

__all__ = [
    "CASES_CHANNEL",
    "CORE_CHANNELS",
    "DataError",
    "Dataset",
    "INFECTED_CHANNEL",
    "SyntheticScenario",
    "WindowSet",
    "atomic_write",
    "channel_scaler",
    "chronological_split",
    "generate_synthetic",
    "load_dataset",
    "mobility_schedule",
    "read_frame",
    "save_dataset",
    "true_parameter_series",
    "windowize",
    "write_frame",
]


class DataError(ValueError):
    """Malformed or inconsistent input data (CLI exit code 2)."""


# the channels every panel starts with, in observations.csv column order,
# and the positions of the two the model reads by name
CORE_CHANNELS = ("cases", "susceptible", "infected", "recovered")
CASES_CHANNEL = CORE_CHANNELS.index("cases")
INFECTED_CHANNEL = CORE_CHANNELS.index("infected")


@dataclass
class Dataset:
    """A complete aligned panel: observations, flows, and populations.

    ``values`` is the (N, L, C) channel block: the ``CORE_CHANNELS``, then
    any extra channels, in ``observations.csv`` column order.  ``flows`` is
    (N, N, L) and ``population`` (N,).
    """

    regions: list[str]
    dates: list[str]
    values: np.ndarray
    flows: np.ndarray
    population: np.ndarray

    @property
    def n_regions(self) -> int:
        return len(self.regions)

    @property
    def n_days(self) -> int:
        return len(self.dates)

    def day_range(self, start: int, stop: int) -> "Dataset":
        """Days ``start:stop`` of the panel, its arrays read-only views of
        this panel's: nothing is copied, and a write through one raises."""
        return Dataset(
            regions=list(self.regions),
            dates=self.dates[start:stop],
            values=_read_only(self.values[:, start:stop]),
            flows=_read_only(self.flows[:, :, start:stop]),
            population=_read_only(self.population[:]),
        )


def _read_only(view: np.ndarray) -> np.ndarray:
    view.flags.writeable = False
    return view


# ----------------------------------------------------------------------- CSV


def iso_date(text: str) -> date_type:
    """The date ``text`` spells as ``YYYY-MM-DD``, the one form read alike on
    every supported Python (``date.fromisoformat`` takes more from 3.11)."""
    digits = text[:4] + text[5:7] + text[8:]
    if len(text) != 10 or text[4::3] != "--" or not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return date_type.fromisoformat(text)


def _day(raw: str) -> date_type | str:
    """The date ``raw`` spells (surrounding blanks ignored), or why it is
    not one."""
    try:
        return iso_date(raw.strip())
    except ValueError as err:
        return f"bad date {raw!r} ({err})"


def _rows(path: Path, head: list[str], exact: bool = True):
    """Yield the header's fields, then each record's first line and fields,
    from one ``csv.reader`` pass over the file's one decode.

    The header must start with ``head`` (stripped fields).  A record needs
    as many columns as the header if ``exact``, else ``len(head)`` or more;
    a blank line has none.  A byte that is not UTF-8, or is NUL, is the
    defect of its line (``_checked_lines``), raised once the lines before
    it are read.  A misfit or a ``csv.Error`` (an unclosed quote run past
    the field size limit) is a ``DataError`` at its record's line.
    """
    end = 0  # the last line read
    # universal newlines: a line break in a quoted field reads as "\n"; a
    # byte that is not UTF-8 reads as a lone surrogate
    with path.open(encoding="utf-8", errors="surrogateescape") as handle:
        reader = csv.reader(_checked_lines(handle, path.name))
        try:
            header = next(reader, None)
            if header is None or [h.strip() for h in header[: len(head)]] != head:
                rule = "start with" if exact else "be"
                raise DataError(f"{path.name}:1: header must {rule} '{','.join(head)}'")
            yield header
            width = len(header) if exact else len(head)
            end = reader.line_num
            for row in reader:
                line, end = end + 1, reader.line_num
                if len(row) != width and (exact or len(row) < width):
                    got = f", got {len(row)}" if exact else ""
                    raise DataError(f"{path.name}:{line}: expected {width} columns{got}")
                yield line, row
        except csv.Error as err:
            raise DataError(f"{path.name}:{end + 1}: {err}") from None


def _checked_lines(handle, name: str):
    """Yield the lines of ``handle``, decoded with ``errors="surrogateescape"``
    (a byte that is not UTF-8 reads as a lone surrogate, which no UTF-8 text
    holds), whole lines of about ``_TEXT_BLOCK`` characters at a time.  Only
    a block with a NUL or a surrogate is walked line by line: the first is a
    ``DataError`` at its line, raised once the lines before it are yielded
    (csv refuses a NUL itself before Python 3.11).
    """
    number = 0  # the lines yielded
    while lines := handle.readlines(_TEXT_BLOCK):
        text = "".join(lines)
        try:
            clean = "\0" not in text and (text.isascii() or bool(text.encode()))
        except UnicodeEncodeError:
            clean = False
        if clean:
            number += len(lines)
            yield from lines
            continue
        for number, line in enumerate(lines, number + 1):
            bad = next((c for c in line if c == "\0" or "\udc80" <= c <= "\udcff"), "")
            if bad == "\0":
                raise DataError(f"{name}:{number}: a NUL byte")
            if bad:
                byte = ord(bad) - 0xDC00  # surrogateescape's U+DC80-U+DCFF
                raise DataError(f"{name}:{number}: byte 0x{byte:02x} is not valid UTF-8")
            yield line


def _region(index: dict, field: str, defect, note: str = "") -> int:
    """The position of the region ``field`` names, less surrounding blanks;
    an unknown name is a ``defect`` (``note`` says where it is missing)."""
    found = index.get(field.strip())
    if found is None:
        raise defect(f"unknown region {field.strip()!r}{note}")
    return found


class _CsvChanged(Exception):
    """A CSV changed while it was parsed, so the parse gets no copy."""


def load_dataset(directory: str | Path) -> Dataset:
    """Read the three CSV files under ``directory`` into an aligned panel.

    While the binary copy ``panel.bin`` beside them holds the sha256 of
    each CSV's bytes, the panel is read from it instead, which equals the
    parse bit for bit; its arrays are views of the one buffer the file was
    read into.  Any other copy (stale, corrupt, hand-made, of another
    format, or one whose arrays break the loader's rules), or none, means a
    parse, after which the copy is written through ``atomic_write`` if no
    CSV changed meanwhile: the CSVs are hashed again once its temporary
    file exists, and only then.  A copy that cannot be written (a read-only
    directory, a full disk) is left out without an error; a panel the parse
    refuses raises its ``DataError`` and gets no copy.
    """
    paths = _csv_paths(directory)
    copy = paths[0].with_name(_COPY_NAME)
    digests = _digests(paths)
    try:
        return _read_copy(copy, digests)
    except _COPY_ERRORS:
        pass
    panel = _parse(*paths)
    manifest = {
        "format": _COPY_FORMAT, "regions": panel.regions, "dates": panel.dates,
        "sha256": digests, "shape": list(panel.values.shape),
    }
    try:
        # the temporary file first: a directory that refuses it costs no
        # second digest
        with atomic_write(copy, binary=True) as handle:
            if _digests(paths) != digests:
                raise _CsvChanged
            handle.writelines(
                _frame_parts(_COPY_MAGIC, manifest, (panel.values, panel.flows, panel.population))
            )
    except (OSError, _CsvChanged):  # atomic_write has removed its temporary file
        pass
    return panel


def _csv_paths(directory: str | Path) -> list[Path]:
    paths = [Path(directory) / name for name in _CSV_NAMES]
    for path in paths:
        if not path.exists():
            raise DataError(f"missing input file: {path}")
    return paths


def _digests(paths: list[Path]) -> list[str]:
    """The sha256 of each file's bytes, read in blocks of at most
    ``_BLOCK`` bytes into one buffer, so no file is held whole."""
    block = memoryview(np.empty(_BLOCK, np.uint8))  # pages are touched only as read
    digests = []
    for path in paths:
        digest = hashlib.sha256()
        with path.open("rb", buffering=0) as handle:
            while count := handle.readinto(block):
                digest.update(block[:count])
        digests.append(digest.hexdigest())
    return digests


def _parse(population_path: Path, observation_path: Path, mobility_path: Path) -> Dataset:
    regions, population = _read_population(population_path)
    dates, values = _read_observations(observation_path, regions)
    flows = _read_mobility(mobility_path, regions, dates)
    return Dataset(regions, dates, values, flows, population)


def _read_population(path: Path) -> tuple[list[str], np.ndarray]:
    def defect(message: str) -> DataError:  # of the record being read
        return DataError(f"{path.name}:{line}: {message}")

    rows = _rows(path, ["region", "population"], exact=False)
    next(rows)
    index, sizes = {}, []
    for line, row in rows:
        name = row[0].strip()
        if name in index:
            raise defect(f"duplicate region {name!r}")
        index[name] = len(index)
        try:
            sizes.append(float(row[1]))
        except ValueError:
            raise defect(f"column 'population' has non-numeric value {row[1]!r}") from None
        if not 0.0 < sizes[-1] < math.inf:
            raise defect(f"population for {name!r} must be > 0 and finite, got {sizes[-1]}")
    if not index:
        raise DataError(f"{path.name}: no regions defined")
    return list(index), np.array(sizes)


def _read_observations(path: Path, regions: list[str]) -> tuple[list[str], np.ndarray]:
    """Dates and the ``(N, L, C)`` channel values.  Rows of one day may come
    in any order; a day is checked for completeness where it ends."""

    def defect(message: str) -> DataError:  # of the record being read
        return DataError(f"{path.name}:{line}: {message}")

    n, core = len(regions), len(CORE_CHANNELS)
    rows = _rows(path, ["date", "region", *CORE_CHANNELS])
    columns = [h.strip() for h in next(rows)[2:]]
    index = {name: k for k, name in enumerate(regions)}
    days, dates = {}, []  # each spelling's date or why it is none; each day's
    order, values = array("q"), array("d")  # each record's region and values
    present = bytearray(b"\1" * n)  # the regions of the day read (all, before day 1)
    line, today = 1, None
    for line, row in rows:
        day = days.get(row[0]) or days.setdefault(row[0], _day(row[0]))
        if isinstance(day, str):
            raise defect(day)
        region = index.get(row[1])
        if region is None:
            region = _region(index, row[1], defect, " (not in population.csv)")
        if day != today:
            if today and day < today:
                raise defect(f"dates must be non-decreasing, {day} follows {today}")
            if 0 in present:
                raise defect(f"missing entry for region {regions[present.index(0)]!r} on {today}")
            if today and (day - today).days > 1:
                raise defect(f"calendar gap, {day} follows {today}; "
                             "dates must be consecutive days")
            today = day
            dates.append(day.isoformat())
            present = bytearray(n)
        elif present[region]:
            raise defect(f"duplicate entry for {regions[region]!r} on {day}")
        present[region] = 1
        numbers = []
        for column, field in zip(columns, row[2:]):
            try:
                numbers.append(float(field))
            except ValueError:
                raise defect(f"column {column!r} has non-numeric value {field!r}") from None
        for k, value in enumerate(numbers):
            # the S/I/R core is a head count; extra channels may go negative
            if not (0.0 <= value < math.inf if k < core else math.isfinite(value)):
                bound = ">= 0 and finite" if k < core else "finite"
                raise defect(f"column {columns[k]!r} must be {bound}, got {value}")
        order.append(region)
        values.extend(numbers)
    if today is None:
        raise DataError(f"{path.name}: no data rows")
    if 0 in present:
        raise defect(f"missing entry for region {regions[present.index(0)]!r} on {today}")
    count = len(order)  # each day has one record per region
    by_region = np.empty((n, len(dates), len(columns)))
    by_region[np.array(order), np.arange(count) // n] = np.frombuffer(values).reshape(count, -1)
    return dates, by_region


def _read_mobility(path: Path, regions: list[str], dates: list[str]) -> np.ndarray:
    """The ``(N, N, L)`` flows.  Rows of one day may come in any order; every
    origin, destination and day needs exactly one row."""

    def defect(message: str) -> DataError:  # of the record being read
        return DataError(f"{path.name}:{line}: {message}")

    n, length = len(regions), len(dates)
    rows = _rows(path, ["date", "origin", "destination", "flow"], exact=False)
    next(rows)
    index = {name: k for k, name in enumerate(regions)}
    days = {spelling: t for t, spelling in enumerate(dates)}  # and other spellings read
    flows = np.empty((n, n, length))
    cells, seen = flows.reshape(-1), bytearray(flows.size)
    line, t = 1, 0
    for line, row in rows:
        now = days.get(row[0])
        if now is None:
            day = _day(row[0])
            if isinstance(day, str):
                raise defect(day)
            now = days[row[0]] = (day - iso_date(dates[0])).days
            if not 0 <= now < length:
                raise defect(f"date {day} does not appear in observations.csv")
        if now < t:
            raise defect(f"dates must be non-decreasing, {dates[now]} follows {dates[t]}")
        t = now
        o, d = index.get(row[1]), index.get(row[2])
        if o is None or d is None:
            o, d = (_region(index, field, defect) for field in row[1:3])
        cell = (o * n + d) * length + t
        if seen[cell]:
            raise defect(f"duplicate flow {regions[o]!r}->{regions[d]!r} on {dates[t]}")
        seen[cell] = 1
        try:
            flow = float(row[3])
        except ValueError:
            raise defect(f"column 'flow' has non-numeric value {row[3]!r}") from None
        if not 0.0 <= flow < math.inf:
            raise defect(f"flow must be >= 0 and finite, got {flow}")
        cells[cell] = flow
    count = seen.count(1)
    if count != flows.size:
        # unique rows on known days and regions fell short: name the first
        # missing flow in (day, origin, destination) order, never zero-fill
        marks = np.frombuffer(seen, np.uint8).reshape(n, n, length).transpose(2, 0, 1)
        t, o, d = np.unravel_index(np.argmin(marks), (length, n, n))
        raise defect(
            f"{count} flow rows, expected {n}*{n}*{length} = {flows.size} (every origin, "
            f"destination and day); first missing: {regions[o]!r}->{regions[d]!r} on {dates[t]}"
        )
    return flows


# ---------------------------------------------------------------- binary copy


_CSV_NAMES = ("population.csv", "observations.csv", "mobility.csv")
_BLOCK = 1 << 20  # the bytes of a CSV hashed at a time
_TEXT_BLOCK = 1 << 16  # the characters of a CSV checked at a time, in whole lines
_COPY_NAME = "panel.bin"
_COPY_MAGIC = b"EPPANEL\x00"
# The copy stores the parse, so it is only as current as ``_parse``: bump
# this whenever ``_parse`` may return another panel for the same bytes, and
# every copy written before is ignored.
_COPY_FORMAT = "epicast-panel-2"
# The copy's manifest keys and the JSON type of each (``require_keys``).
# Its body is ``values``, ``flows`` and ``population``.
_COPY_KEYS = {
    "format": str, "regions": [str], "dates": [str], "sha256": [str], "shape": [int],
    "payload_crc32": int,
}
# What reading a damaged or hand-made copy may raise; each means "parse".
_COPY_ERRORS = (OSError, ValueError)


def frame_crc(manifest: dict, body) -> int:
    """The zlib crc32 of a frame's contents: of ``manifest`` (string keys
    only) without ``payload_crc32``, the key the crc is stored under, as
    UTF-8 JSON with sorted keys, then of each part of ``body`` in turn.  It
    covers the manifest too, so a flipped bit in a name or a shape is caught
    like one in a value."""
    rest = {key: value for key, value in manifest.items() if key != "payload_crc32"}
    crc = zlib.crc32(json.dumps(rest, sort_keys=True).encode("utf-8"))
    for part in body:
        crc = zlib.crc32(part, crc)
    return crc


def write_frame(path: str | Path, magic: bytes, manifest: dict, arrays) -> None:
    """Write ``path`` through ``atomic_write`` as one frame (``_frame_parts``)."""
    parts = _frame_parts(magic, manifest, arrays)
    with atomic_write(path, binary=True) as handle:
        handle.writelines(parts)


def _frame_parts(magic: bytes, manifest: dict, arrays) -> list:
    """One frame's bytes, in order: the 8-byte ``magic``, the manifest's
    length as a little-endian uint32 and ``manifest`` as UTF-8 JSON with
    sorted keys, then the body, each of ``arrays`` in turn as raw
    little-endian float64 values in C order.  The manifest encoded also
    holds the frame's ``frame_crc`` as ``payload_crc32``."""
    body = [np.ascontiguousarray(array, dtype="<f8") for array in arrays]
    crc = frame_crc(manifest, body)
    encoded = json.dumps({**manifest, "payload_crc32": crc}, sort_keys=True).encode("utf-8")
    return [magic + len(encoded).to_bytes(4, "little") + encoded, *body]


def read_frame(path: str | Path, magic: bytes, what: str) -> tuple[dict, memoryview]:
    """The manifest and the body of the frame at ``path`` (``write_frame``).

    The file is read into one writable buffer, and the body is a view of
    it, unchecked.  A file of another ``magic``, or whose manifest runs past
    its end or is not a UTF-8 JSON object, raises a ``ValueError`` that
    names ``path`` and ``what`` it was read as.
    """
    with open(path, "rb") as handle:
        buffer = bytearray(os.fstat(handle.fileno()).st_size)
        view = memoryview(buffer)[: handle.readinto(buffer)]
    if view[: len(magic)] != magic:
        raise ValueError(f"{path}: not a recognized {what} (bad magic or version)")
    start = len(magic) + 4
    end = start + int.from_bytes(view[len(magic) : start], "little")
    try:
        if end > len(view):
            raise ValueError(f"it would end at byte {end} of {len(view)}")
        manifest = json.loads(str(view[start:end], "utf-8"))
    # a UnicodeDecodeError or a JSONDecodeError is a ValueError; JSON nested
    # past the interpreter's recursion limit raises a RecursionError
    except (ValueError, RecursionError) as err:
        raise ValueError(f"{path}: {what} manifest is not UTF-8 JSON ({err})") from None
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: {what} manifest is not a JSON object")
    return manifest, view[end:]


def require_keys(mapping, keys: dict, where: str, path) -> None:
    """Refuse, with a ``ValueError`` naming ``path`` and ``where`` in it,
    a ``mapping`` read from JSON that is not an object, lacks one of
    ``keys`` or holds one whose value is not of its JSON type: a Python
    type, or ``[t]`` for a list of ``t``.  A bool is never a number."""
    if not isinstance(mapping, dict):
        raise ValueError(f"{path}: {where} is not a JSON object")
    for key, kind in keys.items():
        if key not in mapping:
            raise ValueError(f"{path}: {where} lacks key {key!r}")
        value = mapping[key]
        outer, inner = (list, kind[0]) if isinstance(kind, list) else (kind, None)
        typed = isinstance(value, outer) and not isinstance(value, bool)
        if typed and inner:
            typed = all(isinstance(item, inner) and not isinstance(item, bool) for item in value)
        if not typed:
            name = f"list of {inner.__name__}" if inner else outer.__name__
            raise ValueError(
                f"{path}: {where} key {key!r} must be a JSON {name}, got {type(value).__name__}"
            )


def _read_copy(path: Path, digests: list[str]) -> Dataset:
    """The panel in the binary copy at ``path`` if it is of this
    ``_COPY_FORMAT``, was written for CSVs of these ``digests``, its body is
    whole and its arrays pass the parse's value rules; else one of
    ``_COPY_ERRORS`` is raised.  The manifest is checked in full, and the
    body's length against it, before any array exists, so no manifest can
    make this allocate.  The arrays are views of the buffer read."""
    manifest, body = read_frame(path, _COPY_MAGIC, "panel copy")
    if manifest.keys() != _COPY_KEYS.keys():
        raise ValueError(f"{path}: manifest keys are not the format's")
    require_keys(manifest, _COPY_KEYS, "panel copy manifest", path)
    if manifest["format"] != _COPY_FORMAT:
        raise ValueError(f"{path}: of another format")
    if manifest["sha256"] != digests:
        raise ValueError(f"{path}: written for other CSVs")
    regions, dates, shape = manifest["regions"], manifest["dates"], manifest["shape"]
    n, length = len(regions), len(dates)
    if not (n and length) or len(shape) != 3 or shape[:2] != [n, length] \
            or shape[2] < len(CORE_CHANNELS):
        raise ValueError(f"{path}: shapes disagree")
    sizes = [n * length * shape[2], n * n * length, n]
    if len(body) != 8 * sum(sizes):
        raise ValueError(f"{path}: body of {len(body)} bytes, not {8 * sum(sizes)}")
    if frame_crc(manifest, [body]) != manifest["payload_crc32"]:
        raise ValueError(f"{path}: corrupt (crc32 mismatch)")
    values, flows, population = np.split(np.frombuffer(body, "<f8"), np.cumsum(sizes[:2]))
    values, flows = values.reshape(shape), flows.reshape(n, n, length)
    days = np.datetime64(iso_date(dates[0]), "D") + np.arange(length)
    if not (
        np.isfinite(values).all() and (values[..., : len(CORE_CHANNELS)] >= 0.0).all()
        and ((flows >= 0.0) & (flows < math.inf)).all()
        and ((population > 0.0) & (population < math.inf)).all()
        and len(set(regions)) == n and all(name == name.strip() for name in regions)
        and days.astype(str).tolist() == dates
    ):
        raise ValueError(f"{path}: arrays break the panel's rules")
    return Dataset(regions, dates, values, flows, population)


@contextmanager
def atomic_write(path: str | Path, binary: bool = False):
    """Write ``path`` all at once: yield a handle to a temporary sibling file,
    then move it over ``path`` only after the block finishes cleanly.

    A failure partway removes the temporary file and leaves whatever was at
    ``path`` before byte-identical.  A temporary file that cannot be opened
    and a failed move are reported against ``path`` alone, since the
    temporary file never existed or is gone by then.
    """
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    text = {} if binary else {"newline": "", "encoding": "utf-8"}
    try:
        handle = temporary.open("xb" if binary else "x", **text)
    except OSError as err:
        raise OSError(err.errno, err.strerror, str(path)) from None
    try:
        with handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        try:
            os.replace(temporary, path)
        except OSError as err:
            raise OSError(err.errno, err.strerror, str(path)) from None
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _quoted(fields) -> list[str]:
    """Each field as ``csv.writer`` spells it within a row of several."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    spelt = []
    for field in fields:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow([field, ""])  # a lone empty field would be quoted
        spelt.append(buffer.getvalue()[: -len(",\r\n")])
    return spelt


def _csv_chunks(dataset: Dataset):
    """The text of ``population.csv``, ``observations.csv`` and
    ``mobility.csv``, each in pieces of at most a day, as ``csv.writer``
    writes it row by row."""
    names, days = _quoted(dataset.regions), _quoted(dataset.dates)
    n, length = len(names), len(days)
    if (dataset.values.shape[:2], dataset.flows.shape, dataset.population.shape) != (
        (n, length), (n, n, length), (n,)
    ):
        raise ValueError("the panel's arrays do not match its regions and dates")
    extras = (f"extra{k}" for k in range(dataset.values.shape[2] - len(CORE_CHANNELS)))
    population = ["region,population\r\n" + "".join(
        f"{name},{_fmt(size)}\r\n" for name, size in zip(names, dataset.population.tolist())
    )]
    observations = chain([",".join(["date", "region", *CORE_CHANNELS, *extras]) + "\r\n"], (
        "".join(
            f"{day},{name},{','.join(map(_fmt, row))}\r\n"
            for name, row in zip(names, dataset.values[:, t].tolist())
        )
        for t, day in enumerate(days)
    ))
    pairs = [f"{origin},{destination}," for origin, destination in product(names, repeat=2)]
    mobility = chain(["date,origin,destination,flow\r\n"], (
        "".join(
            f"{day},{pair}{_fmt(flow)}\r\n"
            for pair, flow in zip(pairs, dataset.flows[:, :, t].ravel().tolist())
        )
        for t, day in enumerate(days)
    ))
    return population, observations, mobility


def save_dataset(dataset: Dataset, directory: str | Path) -> None:
    """Write the three CSV files (round-trip exact via 17 significant
    digits), and nothing else: ``load_dataset`` writes the binary copy.

    Each CSV goes through ``atomic_write``, and all three temporary files
    are complete and flushed before any is moved into place, so a failure
    while writing leaves the old panel byte-identical.  A CSV that exists as
    anything but a regular file is refused (``DataError``) before anything
    is written.  The three moves are still not one atomic step: a rename
    that fails after an earlier one succeeded leaves a mixed panel.  A copy
    of the old panel is left in place; it holds the old CSVs' digests, so
    ``load_dataset`` reads it only while the CSVs keep those bytes.
    """
    directory = Path(directory)
    for name in _CSV_NAMES:
        target = directory / name
        if target.exists() and not target.is_file():
            raise DataError(f"{target}: exists and is not a regular file")
    directory.mkdir(parents=True, exist_ok=True)
    with ExitStack() as moves:
        for name, chunks in zip(_CSV_NAMES, _csv_chunks(dataset)):
            handle = moves.enter_context(atomic_write(directory / name, binary=True))
            for chunk in chunks:
                handle.write(chunk.encode())
            handle.flush()  # a full disk fails here, before any move


# ------------------------------------------------------------------ splitting


def chronological_split(dataset: Dataset) -> tuple[Dataset, Dataset, Dataset]:
    """Split days 6:1:1 (train gets floor(6L/8), validation floor(L/8)),
    each segment a ``day_range``: read-only views of the panel's arrays."""
    length = dataset.n_days
    if length < 8:
        raise DataError(f"need at least 8 days to split, got {length}")
    n_train = (6 * length) // 8
    n_val = length // 8
    return (
        dataset.day_range(0, n_train),
        dataset.day_range(n_train, n_train + n_val),
        dataset.day_range(n_train + n_val, length),
    )


@dataclass
class WindowSet:
    """Sliding windows (stride 1) over one data segment: the one window type,
    which ``windowize`` cuts, ``batch`` selects from and every forward reads.

    ``observations``, ``mobility`` and ``targets`` are read-only views of the
    segment's arrays, so each day is held once however many windows see it;
    the start states are small (W, N) copies.  ``batch`` of a slice returns
    views of every array (read-only, never gathered); ``batch`` of an integer
    index array gathers fresh, writeable, C-ordered copies, the mobility as
    (B, N, N, T_in) rows.  A result that depends on the order of a sum over
    the windows reduces a C-ordered copy (``channel_scaler``).
    """

    observations: np.ndarray  # (W, N, T_in, C)
    mobility: np.ndarray  # (W, N, N, T_in)
    susceptible0: np.ndarray  # (W, N): each window's rollout start state
    infected0: np.ndarray
    recovered0: np.ndarray
    targets: np.ndarray  # (W, N, T_out)
    population: np.ndarray  # (N,)
    regions: list[str]
    t_out: int

    def __len__(self) -> int:
        return self.observations.shape[0]

    def batch(self, indices) -> WindowSet:
        """The windows at ``indices``, a slice or a 1-D integer index array,
        as a set sharing this one's ``population``, ``regions`` and ``t_out``."""
        if not isinstance(indices, slice):
            indices = np.asarray(indices)
            if indices.ndim != 1 or indices.dtype.kind not in "iu":
                raise TypeError(
                    "WindowSet.batch takes a slice or a 1-D integer index array, "
                    f"got {indices.dtype} values of shape {indices.shape}"
                )
        return WindowSet(
            observations=self.observations[indices],
            mobility=self.mobility[indices],
            susceptible0=self.susceptible0[indices],
            infected0=self.infected0[indices],
            recovered0=self.recovered0[indices],
            targets=self.targets[indices],
            population=self.population,
            regions=self.regions,
            t_out=self.t_out,
        )


def windowize(dataset: Dataset, t_in: int, t_out: int) -> WindowSet:
    """All windows of ``t_in`` observed days plus ``t_out`` target days.

    Window ``w`` observes days ``w .. w + t_in - 1``, starts its rollout from
    the S/I/R counts of the last of them and targets the cases of the
    ``t_out`` days after it.  The observations, mobility and targets are
    read-only sliding views of the segment's ``values`` and ``flows``: no
    buffer of the windows' size is allocated.
    """
    length = dataset.n_days
    count = length - (t_in + t_out) + 1
    if count < 1:
        raise DataError(
            f"segment of {length} days is too short for {t_in}+{t_out}-day windows"
        )
    view = np.lib.stride_tricks.sliding_window_view
    # (W, N, t_in + t_out, C): each window's days, observed then targeted
    days = view(dataset.values, t_in + t_out, axis=1).transpose(1, 0, 3, 2)
    susceptible0, infected0, recovered0 = np.ascontiguousarray(  # the S/I/R channels
        days[:, :, t_in - 1, CASES_CHANNEL + 1 : len(CORE_CHANNELS)].transpose(2, 0, 1)
    )
    mobility = view(dataset.flows, t_in, axis=2)
    return WindowSet(
        observations=days[:, :, :t_in],
        mobility=mobility[:, :, :count].transpose(2, 0, 1, 3),
        susceptible0=susceptible0,
        infected0=infected0,
        recovered0=recovered0,
        targets=days[:, :, t_in:, CASES_CHANNEL],
        population=dataset.population.copy(),
        regions=list(dataset.regions),
        t_out=t_out,
    )


def channel_scaler(windows: WindowSet) -> tuple[np.ndarray, np.ndarray]:
    """The per-channel mean and standard deviation of every observed day of
    every window, the model's input scaler.  They are reduced from a
    transient C-ordered copy of the observations, so their rounding is that
    of the (W, N, T_in, C) block, not of the view's strides."""
    observations = np.ascontiguousarray(windows.observations)
    return observations.mean(axis=(0, 1, 2)), observations.std(axis=(0, 1, 2))


# ------------------------------------------------------------------ synthetic


@dataclass(frozen=True)
class SyntheticScenario:
    """Reproducible mechanistic world used by ``generate_synthetic``.

    The default world sustains visible epidemic waves through all three
    chronological segments (no early burn-out, no dead tail), which makes
    it a meaningful forecasting benchmark out of the box.
    """

    seed: int = 42
    n_regions: int = 8
    length: int = 400
    beta_low: float = 0.05
    beta_high: float = 0.45
    season_period: float = 200.0
    beta_kind: str = "seasonal"  # seasonal | bump | constant
    gamma: float = 0.1
    noise: float = 0.05
    population_low: float = 5e4
    population_high: float = 5e5
    initial_infected_fraction: float = 0.01
    self_flow: float = 0.13
    cross_flow: float = 0.03
    weekly_amplitude: float = 0.1
    start_date: str = "2020-01-01"

    def __post_init__(self):
        check_ranges(self, {
            "seed": ">= 0", "n_regions": ">= 1", "length": ">= 1",
            "noise": "finite and >= 0",
            "season_period": "finite and > 0", "gamma": "in [0, 1]",
            "population_low": "finite and > 0", "initial_infected_fraction": "in [0, 1]",
            "self_flow": "finite and >= 0", "cross_flow": "finite and >= 0",
            "weekly_amplitude": "in [0, 1]",
        })
        if self.beta_kind not in ("seasonal", "bump", "constant"):
            raise ConfigRangeError(
                "beta_kind", self.beta_kind, "one of seasonal, bump, constant"
            )
        if not 0.0 < self.beta_low < 1.0:
            raise ConfigRangeError("beta_low", self.beta_low, "in (0, 1)")
        if not self.beta_low <= self.beta_high < 1.0:
            raise ConfigRangeError("beta_high", self.beta_high, "in [beta_low, 1)")
        if not self.population_low <= self.population_high < np.inf:
            raise ConfigRangeError(
                "population_high", self.population_high, "finite and >= population_low"
            )
        try:
            iso_date(self.start_date)
        except (TypeError, ValueError):
            raise ConfigRangeError(
                "start_date", self.start_date, "an ISO date such as 2020-01-01"
            ) from None


def _structure_rng(scenario: SyntheticScenario) -> np.random.Generator:
    return np.random.default_rng([scenario.seed, 101])


def _noise_rng(scenario: SyntheticScenario) -> np.random.Generator:
    return np.random.default_rng([scenario.seed, 202])


def _populations_and_sites(
    scenario: SyntheticScenario,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rng = _structure_rng(scenario)
    n = scenario.n_regions
    log_low, log_high = np.log(scenario.population_low), np.log(scenario.population_high)
    population = np.exp(rng.uniform(log_low, log_high, size=n))
    sites = rng.uniform(0.0, 1.0, size=(n, 2))
    # Stratified seasonal phases: regions cover the cycle evenly (with a
    # small jitter), so every chronological segment sees the full phase mix.
    offsets = (np.arange(n) + rng.uniform(0.0, 1.0, size=n)) / n
    phases = rng.permutation(offsets) * scenario.season_period
    return population, sites, phases


def true_parameter_series(scenario: SyntheticScenario) -> tuple[np.ndarray, np.ndarray]:
    """The generating infection/recovery rates, (N, length) each."""
    _, _, phases = _populations_and_sites(scenario)
    n, length = scenario.n_regions, scenario.length
    days = np.arange(length)
    mid = 0.5 * (scenario.beta_low + scenario.beta_high)
    amp = 0.5 * (scenario.beta_high - scenario.beta_low)
    if scenario.beta_kind == "seasonal":
        beta = mid + amp * np.sin(
            2.0 * np.pi * (days[None, :] + phases[:, None]) / scenario.season_period
        )
    elif scenario.beta_kind == "bump":
        center = length / 2.0
        width = scenario.season_period / 6.0
        bump = np.exp(-0.5 * ((days - center) / width) ** 2)
        beta = scenario.beta_low + (scenario.beta_high - scenario.beta_low) * bump
        beta = np.broadcast_to(beta, (n, length)).copy()
    else:
        beta = np.full((n, length), mid)
    gamma = np.full((n, length), scenario.gamma)
    return beta, gamma


def mobility_schedule(scenario: SyntheticScenario) -> np.ndarray:
    """Gravity-style flows with a weekly modulation, (N, N, length)."""
    population, sites, _ = _populations_and_sites(scenario)
    n, length = scenario.n_regions, scenario.length
    distances = np.maximum(
        np.linalg.norm(sites[:, None, :] - sites[None, :, :], axis=-1), 0.05
    )
    weights = population[None, :] / distances**2
    np.fill_diagonal(weights, 0.0)
    row_sums = weights.sum(axis=1, keepdims=True)
    row_sums[row_sums == 0.0] = 1.0
    share = weights / row_sums
    base = scenario.cross_flow * population[:, None] * share
    np.fill_diagonal(base, scenario.self_flow * population)
    days = np.arange(length)
    modulation = 1.0 + scenario.weekly_amplitude * np.sin(2.0 * np.pi * days / 7.0)
    return base[:, :, None] * modulation[None, None, :]


def generate_synthetic(scenario: SyntheticScenario) -> Dataset:
    """Simulate the mechanistic world and package it as a Dataset."""
    population, _, _ = _populations_and_sites(scenario)
    beta, gamma = true_parameter_series(scenario)
    flows = mobility_schedule(scenario)
    n, length = scenario.n_regions, scenario.length

    initial_infected = scenario.initial_infected_fraction * population
    cases, *compartments = metapop.trajectory(
        population - initial_infected, initial_infected, np.zeros(n),
        beta, gamma, flows, population,
    )
    if scenario.noise > 0.0:
        rng = _noise_rng(scenario)
        sigma = scenario.noise
        cases = cases * np.exp(rng.normal(-0.5 * sigma * sigma, sigma, size=cases.shape))

    start = date_type.fromisoformat(scenario.start_date)
    dates = [(start + timedelta(days=k)).isoformat() for k in range(length)]
    return Dataset(
        regions=[f"region{k:02d}" for k in range(n)],
        dates=dates,
        values=np.stack([cases, *compartments], axis=-1),
        flows=flows,
        population=population,
    )
