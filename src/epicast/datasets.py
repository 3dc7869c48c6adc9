"""Dataset ingestion, splitting, windowing, and synthetic generation.

On-disk layout is three UTF-8 CSV files with headers and YYYY-MM-DD dates:

* ``observations.csv``: date, region, cases, susceptible, infected,
  recovered, then any number of extra channel columns;
* ``mobility.csv``: date, origin, destination, flow;
* ``population.csv``: region, population.

``population.csv`` defines the region universe and its order.  Floats are
written with 17 significant digits so a save/load round trip is exact.

``load_dataset`` parses each file in one columnar ``np.loadtxt`` pass
and runs every check over whole arrays.  Days must be non-decreasing
in both dated files; within a day, rows may come in any order.  It rejects,
as a ``DataError`` naming the file and line of the first defect in file
order (never filling anything in):

* a byte that is not UTF-8, a NUL byte;
* a bad header, a wrong column count (a blank line has none), an
  unparseable date or number (numbers as ``float()`` reads them);
* a region missing from ``population.csv``, or named twice there;
* a calendar gap between observation days, or a mobility date that is not
  an observation day;
* a duplicate row, a region missing from an observation day (reported
  where that day ends) or a missing flow (reported after the last row);
* a non-finite value anywhere, a negative case, S/I/R count or flow, and a
  population that is not positive.

A ``Dataset`` holds the channels as one (N, L, C) block, ``values``, from
load to window.  ``windowize`` cuts every window (the forecast's too) as
contiguous copies of sliding views of it, except the mobility, which stays
one read-only sliding view of the segment's flows.  ``WindowSet.batch`` of
a slice (validation, ``evaluate``, ``forecast``) hands out views, so their
mobility is never gathered; a shuffled training batch asks with an index
array and gets copies.

The synthetic generator runs the mechanistic core day by day
(``metapop.trajectory``), so at zero observation noise the stored cases
are an exact fixed point of the forecaster's own rollout given the true
rates and flows.
"""

from __future__ import annotations

import csv
import os
import warnings
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from datetime import date as date_type, timedelta
from pathlib import Path

import numpy as np

from .domain import ConfigRangeError, check_ranges
from . import metapop
from .pipeline import WindowBatch

__all__ = [
    "CORE_CHANNELS",
    "DataError",
    "Dataset",
    "SyntheticScenario",
    "WindowSet",
    "atomic_write",
    "chronological_split",
    "generate_synthetic",
    "load_dataset",
    "mobility_schedule",
    "save_dataset",
    "true_parameter_series",
    "windowize",
]


class DataError(ValueError):
    """Malformed or inconsistent input data (CLI exit code 2)."""


# the channels every panel starts with, in observations.csv column order
CORE_CHANNELS = ("cases", "susceptible", "infected", "recovered")


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
        return Dataset(
            regions=list(self.regions),
            dates=self.dates[start:stop],
            values=self.values[:, start:stop].copy(),
            flows=self.flows[:, :, start:stop].copy(),
            population=self.population.copy(),
        )


# ----------------------------------------------------------------------- CSV


_INF = float("inf")
# Bytes per text field of the columnar parse.  A field that fills its width
# may have been cut short, so the file is then parsed again with it wider.
_DATE_WIDTH = 11  # an ISO date and a spare byte
_VALUE_WIDTH = 25  # a double at 17 significant digits and a spare byte
# the days of a common year before each month, and in all
_MONTH_STARTS = (0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334, 365)


def _text(raw: bytes) -> str:
    return raw.decode("utf-8", "replace")


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


class _Defects:
    """The first defect among one file's records.

    Readers run their checks in a fixed order, each over the records before
    the earliest defect found so far.  So the defect raised is the first, in
    that order, of the earliest record that has one, and a check may rely on
    every record it sees having passed the checks before it.
    """

    def __init__(self, path: Path, records: int, message: str | None = None):
        self.path, self.end, self.message = path, records, message

    def add(self, record: int, message: str) -> None:
        self.end, self.message = record, message

    def check(self, bad: np.ndarray, message) -> None:
        """Add the first record ``bad`` marks, worded by ``message(record)``."""
        hits = np.flatnonzero(bad[: self.end])
        if hits.size:
            self.add(int(hits[0]), message(int(hits[0])))

    def raise_first(self) -> None:
        if self.message is not None:
            raise DataError(f"{self.path.name}:{self.end + 2}: {self.message}")


def _records(path: Path, head: list[str], rule: str, widths: list[int], exact: bool):
    """The header's fields, the records after it from one ``np.loadtxt``
    pass, and the ``_Defects`` to check them.

    Fields ``f0``, ``f1``, ... are raw UTF-8 bytes (first of the given
    ``widths``); the value fields after them are float64.  A record needs as
    many columns as the header if ``exact``, else at least ``len(head)``.
    loadtxt skips blank lines, records of no columns to ``csv``, so records
    are counted against lines.  If the two differ (a quoted field may span
    lines) or loadtxt fails, the file is read again record by record for the
    first misfit, the first defect; the records before it are parsed again
    with the values as bytes, for ``float()`` (which reads ``1_000``, say).
    A byte that is not UTF-8, or is NUL, is the defect of its line (on line
    1, before the header is checked), and only the lines before it are read.
    """
    data = path.read_bytes()
    bad, why = len(data), None
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as err:
        bad, why = err.start, f"byte 0x{data[err.start]:02x} is not valid UTF-8"
    nul = data.find(b"\0", 0, bad)
    if nul >= 0:  # loadtxt's parser would end the field there
        bad, why = nul, "a NUL byte"
    # the bad byte's line, else the last: "\r\n", "\r" and "\n" end one, so
    # count each "\r\n", at even and at odd offsets, once
    view = memoryview(data)[:bad]
    codes = np.frombuffer(view, np.uint8)
    pairs = (np.frombuffer(v, "<u2", len(v) // 2) == 0x0A0D for v in (view, view[1:]))
    ends = np.count_nonzero(codes == 10) + np.count_nonzero(codes == 13)
    line = int(ends - sum(map(np.count_nonzero, pairs))) + 1
    if why and line == 1:
        raise DataError(f"{path.name}:1: {why}")
    keep = line - bool(why)  # the lines to read; decoding reads ahead of them
    with path.open(newline="", encoding="utf-8", errors="replace") as handle:
        reader = csv.reader(text for _, text in zip(range(keep), handle))
        header = next(reader, None)
        if header is None or [h.strip() for h in header[: len(head)]] != head:
            raise DataError(f"{path.name}:1: header must {rule}")
        skip = reader.line_num
    width = len(header) if exact else len(head)
    lines = keep - skip - (why is None and data.endswith((b"\n", b"\r")))
    del data, view, codes
    names = len(widths)
    widths = widths + [_VALUE_WIDTH] * (width - names)

    def parse(max_rows, number=None):
        while True:
            dtype = np.dtype([
                (f"f{k}", number if number and k >= names else f"S{w}")
                for k, w in enumerate(widths)
            ])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no records: checked below
                table = np.loadtxt(
                    path, dtype, delimiter=",", comments=None, quotechar='"',
                    skiprows=skip, usecols=None if exact else range(width),
                    max_rows=max_rows, encoding="latin-1", ndmin=1,
                )  # latin-1 hands every byte through unchanged
            cells = table.view(np.uint8).reshape(len(table), dtype.itemsize)
            full = [
                k for k, (kind, start) in enumerate(dtype.fields.values())
                if kind.char == "S" and cells[:, start + kind.itemsize - 1].any()
            ]
            if not full:
                return table
            for k in full:
                widths[k] *= 4

    def misfit(count: int) -> str | None:
        if exact and count != width:
            return f"expected {width} columns, got {count}"
        return None if count >= width else f"expected {width} columns"

    table = found = None
    if why is None:
        try:
            table = parse(None, "f8")
        except ValueError:  # a misfit, or a number only float() reads
            pass
    if table is None or len(table) != lines:
        with path.open(newline="", encoding="utf-8", errors="replace") as handle:
            rows = csv.reader(text for _, text in zip(range(keep), handle))
            next(rows)
            counts = [len(row) for row in rows]
        found = next(
            ((i, reason) for i, count in enumerate(counts) if (reason := misfit(count))),
            None,
        )
        try:
            table = parse(found[0] if found else len(counts) if why else None)
        except ValueError as err:
            raise DataError(f"{path.name}: {err}") from None
    return header, table, _Defects(path, len(table), found[1] if found else why)


def _name_width(names: list[str]) -> int:
    return 1 + max(len(name.encode()) for name in names)


def _indices(defects: _Defects, raw: np.ndarray, names: list[str], note: str = ""):
    """Each record's position in ``names``, by its bytes or else by its text
    less surrounding blanks, once per distinct spelling.  A record that names
    none is a defect, an unknown region (``note`` says where it is missing)."""
    keys = np.array([name.encode() for name in names])
    order = np.argsort(keys)
    index = order[np.searchsorted(keys[order], raw).clip(max=len(names) - 1)]
    miss = keys[index] != raw
    if miss.any():
        lookup = {name: i for i, name in enumerate(names)}
        spellings, inverse = np.unique(raw[miss], return_inverse=True)
        places = [lookup.get(_text(s).strip(), -1) for s in spellings]
        index[miss] = np.array(places)[inverse]
        defects.check(index < 0, lambda i: (
            f"unknown region {_text(raw[i]).strip()!r}{note}"
        ))
    return index


def _floats(defects: _Defects, raw: np.ndarray, column: str) -> np.ndarray:
    """The field of every record still checked as a float, up to the first
    that is not a number, which is a defect."""
    if raw.dtype.kind == "f":
        return raw[: defects.end]
    text = np.char.decode(raw[: defects.end], "utf-8", "replace")
    try:
        return text.astype(np.float64)  # float() of each field
    except ValueError:
        for i, field in enumerate(map(str, text)):
            try:
                float(field)
            except ValueError:
                defects.add(i, f"column {column!r} has non-numeric value {field!r}")
                return text[:i].astype(np.float64)
        raise


def _ordinals(defects: _Defects, raw: np.ndarray) -> np.ndarray:
    """Each record's date as its ``date.toordinal()``.  A field of exactly
    ``YYYY-MM-DD`` is read by arithmetic on its bytes, once per run of equal
    fields; any other spelling goes through ``_day`` once, and one that is
    no date is a defect."""
    starts = np.flatnonzero(np.r_[len(raw) > 0, raw[1:] != raw[:-1]])  # of each run
    cells = raw[starts].view(np.uint8).reshape(len(starts), raw.itemsize)
    digits = (cells[:, [0, 1, 2, 3, 5, 6, 8, 9]] - 48).astype(np.int64)  # a non-digit > 9
    year, month, day = (digits[:, a:b] @ scale for a, b, scale in (
        (0, 4, [1000, 100, 10, 1]), (4, 6, [10, 1]), (6, 8, [10, 1])
    ))
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    m = month.clip(1, 12)
    before = np.take(_MONTH_STARTS, m - 1) + (leap & (m > 2))  # the year's days before
    ok = (
        (digits <= 9).all(axis=1) & (cells[:, 4] == 45) & (cells[:, 7] == 45)
        & ~cells[:, 10:].any(axis=1) & (year > 0) & (month == m) & (day > 0)
        & (day <= np.take(_MONTH_STARTS, m) + (leap & (m > 1)) - before)
    )
    prior = year - 1
    ordinal = prior * 365 + prior // 4 - prior // 100 + prior // 400 + before + day
    if not ok.all():
        spellings, inverse = np.unique(raw[starts[~ok]], return_inverse=True)
        days = [_day(_text(s)) for s in spellings]
        places = np.array([0 if isinstance(d, str) else d.toordinal() for d in days])
        ordinal[~ok] = places[inverse]
    ordinal = np.repeat(ordinal, np.diff(starts, append=len(raw)))
    defects.check(ordinal == 0, lambda i: _day(_text(raw[i])))
    return ordinal


def _repeats(keys: np.ndarray) -> np.ndarray:
    """Marks the records whose key, an int >= 0, an earlier record already has."""
    repeat = np.zeros(len(keys), dtype=bool)
    if np.bincount(keys, minlength=1).max() > 1:  # sorted only to find where
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
        repeat[order[1:][ordered[1:] == ordered[:-1]]] = True
    return repeat


def _missing(regions: list[str], present: np.ndarray, day: str) -> str:
    absent = np.setdiff1d(np.arange(len(regions)), present)
    return f"missing entry for region {regions[absent[0]]!r} on {day}"


def load_dataset(directory: str | Path) -> Dataset:
    """Read the three CSV files under ``directory`` into an aligned panel."""
    directory = Path(directory)
    population_path = directory / "population.csv"
    observation_path = directory / "observations.csv"
    mobility_path = directory / "mobility.csv"
    for path in (population_path, observation_path, mobility_path):
        if not path.exists():
            raise DataError(f"missing input file: {path}")

    regions, population = _read_population(population_path)
    dates, values = _read_observations(observation_path, regions)
    flows = _read_mobility(mobility_path, regions, dates)
    return Dataset(regions, dates, values, flows, population)


def _read_population(path: Path) -> tuple[list[str], np.ndarray]:
    # 16 bytes is a first guess at the names; a longer one is parsed again wider
    _, table, defects = _records(
        path, ["region", "population"], "be 'region,population'", [16], exact=False
    )
    names = [raw.decode().strip() for raw in table["f0"]]
    defects.check(
        _repeats(np.unique(names, return_inverse=True)[1]),
        lambda i: f"duplicate region {names[i]!r}",
    )
    sizes = _floats(defects, table["f1"], "population")
    defects.check(~((sizes > 0.0) & (sizes < _INF)), lambda i: (
        f"population for {names[i]!r} must be > 0 and finite, got {float(sizes[i])}"
    ))
    defects.raise_first()
    if not names:
        raise DataError(f"{path.name}: no regions defined")
    return names, np.array(sizes)


def _read_observations(path: Path, regions: list[str]) -> tuple[list[str], np.ndarray]:
    """Dates and the ``(N, L, C)`` channel values.  Rows of one day may come
    in any order; a day is checked for completeness where it ends."""
    n = len(regions)
    head = ["date", "region", *CORE_CHANNELS]
    header, table, defects = _records(
        path, head, f"start with '{','.join(head)}'",
        [_DATE_WIDTH, _name_width(regions)], exact=True,
    )
    columns = [h.strip() for h in header[2:]]
    if defects.message is None and not len(table):
        raise DataError(f"{path.name}: no data rows")

    day = _ordinals(defects, table["f0"])
    region = _indices(defects, table["f1"], regions, " (not in population.csv)")

    def iso(i: int) -> str:
        return date_type.fromordinal(int(day[i])).isoformat()

    step = np.diff(day, prepend=day[:1])  # 0 within a day
    defects.check(step < 0, lambda i: (
        f"dates must be non-decreasing, {iso(i)} follows {iso(i - 1)}"
    ))
    number = np.cumsum(step != 0)  # each record's day, from 0
    # A day's first record repeats no key, so checking for repeats before
    # the day boundaries still reports the first defect.
    defects.check(
        _repeats((number * n + region)[: defects.end]),
        lambda i: f"duplicate entry for {regions[region[i]]!r} on {iso(i)}",
    )
    starts = np.flatnonzero(np.r_[True, step[1:] != 0])  # each day's first record
    sizes = np.diff(starts, append=len(day))
    short = np.zeros(len(day), dtype=bool)
    short[starts[1:]] = sizes[:-1] != n
    defects.check(short, lambda i: _missing(
        regions, region[starts[np.searchsorted(starts, i) - 1] : i], iso(i - 1)
    ))
    defects.check(step > 1, lambda i: (
        f"calendar gap, {iso(i)} follows {iso(i - 1)}; dates must be consecutive days"
    ))
    channels = [
        _floats(defects, table[f"f{k + 2}"], column) for k, column in enumerate(columns)
    ]
    for k, (column, values) in enumerate(zip(columns, channels)):
        # the S/I/R core is a head count; extra channels may go negative
        bad, bound = ~np.isfinite(values), "finite"
        if k < 4:
            bad, bound = bad | (values < 0.0), ">= 0 and finite"
        defects.check(
            bad, lambda i: f"column {column!r} must be {bound}, got {float(values[i])}"
        )
    defects.raise_first()
    if sizes[-1] != n:
        raise DataError(f"{path.name}:{len(day) + 1}: " + _missing(
            regions, region[starts[-1] :], iso(len(day) - 1)
        ))
    by_region = np.empty((n, len(starts), len(columns)))
    for k, values in enumerate(channels):
        by_region[region, number, k] = values
    # a valid date of 10 bytes is spelt YYYY-MM-DD
    first = zip(starts.tolist(), table["f0"][starts].tolist())
    return [s.decode() if len(s) == 10 else iso(i) for i, s in first], by_region


def _read_mobility(path: Path, regions: list[str], dates: list[str]) -> np.ndarray:
    """The ``(N, N, L)`` flows.  Rows of one day may come in any order; every
    origin, destination and day needs exactly one row."""
    n, length = len(regions), len(dates)
    head = ["date", "origin", "destination", "flow"]
    name = _name_width(regions)
    _, table, defects = _records(
        path, head, f"be '{','.join(head)}'", [_DATE_WIDTH, name, name], exact=False
    )

    # days are consecutive, so a day's index is its ordinal less the first's
    first = iso_date(dates[0]).toordinal()
    t = _ordinals(defects, table["f0"]) - first
    defects.check((t < 0) | (t >= length), lambda i: (
        f"date {date_type.fromordinal(int(t[i]) + first)} does not appear in "
        "observations.csv"
    ))
    defects.check(np.diff(t, prepend=t[:1]) < 0, lambda i: (
        f"dates must be non-decreasing, {dates[t[i]]} follows {dates[t[i - 1]]}"
    ))
    o, d = (_indices(defects, table[field], regions) for field in ("f1", "f2"))
    flat = (o * n + d) * length + t
    defects.check(_repeats(flat[: defects.end]), lambda i: (
        f"duplicate flow {regions[o[i]]!r}->{regions[d[i]]!r} on {dates[t[i]]}"
    ))
    flow = _floats(defects, table["f3"], "flow")
    defects.check(~((flow >= 0.0) & (flow < _INF)), lambda i: (
        f"flow must be >= 0 and finite, got {float(flow[i])}"
    ))
    defects.raise_first()
    # Rows are unique and on known days and regions, so a short count means
    # some flows are missing; zero-filling them would invent data.
    count, expected = len(flat), n * n * length
    if count != expected:
        # the first unmarked cell in (day, origin, destination) order
        marks = np.zeros(expected, dtype=np.uint8)
        marks[flat] = 1
        marks = marks.reshape(n, n, length).transpose(2, 0, 1)
        t, o, d = np.unravel_index(np.argmin(marks), (length, n, n))
        raise DataError(
            f"{path.name}:{count + 1}: {count} flow rows, expected "
            f"{n}*{n}*{length} = {expected} (every origin, destination and day); "
            f"first missing: {regions[o]!r}->{regions[d]!r} on {dates[t]}"
        )
    flows = np.empty(expected)
    flows[flat] = flow
    return flows.reshape(n, n, length)


@contextmanager
def atomic_write(path: str | Path, binary: bool = False):
    """Write ``path`` all at once: yield a handle to a temporary sibling file,
    then move it over ``path`` only after the block finishes cleanly.

    A failure partway removes the temporary file and leaves whatever was at
    ``path`` before byte-identical.  A failed move is reported against
    ``path`` alone, since the temporary file is gone by then.
    """
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    text = {} if binary else {"newline": "", "encoding": "utf-8"}
    handle = temporary.open("xb" if binary else "x", **text)
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


def save_dataset(dataset: Dataset, directory: str | Path) -> None:
    """Write the three CSV files (round-trip exact via 17 significant digits).

    Each goes through ``atomic_write``, and all three temporary files are
    complete before any is moved into place, so a failure while writing
    leaves the old panel byte-identical.  A panel file that exists as
    anything but a regular file is refused (``DataError``) before anything
    is written.  The three moves are still not one atomic step: a rename
    that fails after an earlier one succeeded leaves a mixed panel.
    """
    directory = Path(directory)
    names = ("population.csv", "observations.csv", "mobility.csv")
    for name in names:
        target = directory / name
        if target.exists() and not target.is_file():
            raise DataError(f"{target}: exists and is not a regular file")
    directory.mkdir(parents=True, exist_ok=True)
    extras = range(dataset.values.shape[2] - len(CORE_CHANNELS))
    with ExitStack() as files:
        population, observations, mobility = (
            csv.writer(files.enter_context(atomic_write(directory / name)))
            for name in names
        )
        population.writerow(["region", "population"])
        for name, size in zip(dataset.regions, dataset.population):
            population.writerow([name, _fmt(size)])
        observations.writerow(
            ["date", "region", *CORE_CHANNELS, *(f"extra{k}" for k in extras)]
        )
        for d_idx, day in enumerate(dataset.dates):
            for r_idx, name in enumerate(dataset.regions):
                observations.writerow(
                    [day, name, *(_fmt(v) for v in dataset.values[r_idx, d_idx])]
                )
        mobility.writerow(["date", "origin", "destination", "flow"])
        for d_idx, day in enumerate(dataset.dates):
            for o_idx, origin in enumerate(dataset.regions):
                for t_idx, destination in enumerate(dataset.regions):
                    mobility.writerow(
                        [day, origin, destination, _fmt(dataset.flows[o_idx, t_idx, d_idx])]
                    )


# ------------------------------------------------------------------ splitting


def chronological_split(dataset: Dataset) -> tuple[Dataset, Dataset, Dataset]:
    """Split days 6:1:1 (train gets floor(6L/8), validation floor(L/8))."""
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
    """Sliding windows (stride 1) over one data segment.

    ``mobility`` is a read-only view of the segment's flows.  ``batch`` of a
    slice returns views of every array, mobility included (read-only, never
    gathered); ``batch`` of an integer index array gathers fresh, writeable
    copies, the mobility as C-ordered (B, N, N, T_in) rows.
    """

    observations: np.ndarray  # (W, N, T_in, C)
    mobility: np.ndarray  # (W, N, N, T_in)
    susceptible0: np.ndarray  # (W, N)
    infected0: np.ndarray
    recovered0: np.ndarray
    targets: np.ndarray  # (W, N, T_out)
    population: np.ndarray
    regions: list[str]
    t_out: int

    def __len__(self) -> int:
        return self.observations.shape[0]

    def batch(self, indices) -> WindowBatch:
        """The windows at ``indices``: a slice, or a 1-D integer index array."""
        if not isinstance(indices, slice):
            indices = np.asarray(indices)
            if indices.ndim != 1 or indices.dtype.kind not in "iu":
                raise TypeError(
                    "WindowSet.batch takes a slice or a 1-D integer index array, "
                    f"got {indices.dtype} values of shape {indices.shape}"
                )
        return WindowBatch(
            observations=self.observations[indices],
            mobility=self.mobility[indices],
            susceptible0=self.susceptible0[indices],
            infected0=self.infected0[indices],
            recovered0=self.recovered0[indices],
            population=self.population,
            targets=self.targets[indices],
        )


def windowize(dataset: Dataset, t_in: int, t_out: int) -> WindowSet:
    """All windows of ``t_in`` observed days plus ``t_out`` target days.

    Window ``w`` observes days ``w .. w + t_in - 1``, starts its rollout from
    the S/I/R counts of the last of them and targets the cases of the
    ``t_out`` days after it.
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
    susceptible0, infected0, recovered0 = np.ascontiguousarray(
        days[:, :, t_in - 1, 1:4].transpose(2, 0, 1)  # the S/I/R channels
    )
    mobility = view(dataset.flows, t_in, axis=2)
    return WindowSet(
        observations=np.ascontiguousarray(days[:, :, :t_in]),
        mobility=mobility[:, :, :count].transpose(2, 0, 1, 3),
        susceptible0=susceptible0,
        infected0=infected0,
        recovered0=recovered0,
        targets=np.ascontiguousarray(days[:, :, t_in:, 0]),
        population=dataset.population.copy(),
        regions=list(dataset.regions),
        t_out=t_out,
    )


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
