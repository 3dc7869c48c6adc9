"""Dataset ingestion, splitting, windowing, and synthetic generation.

On-disk layout is three UTF-8 CSV files with headers and ISO-8601 dates:

* ``observations.csv``: date, region, cases, susceptible, infected,
  recovered, then any number of extra channel columns;
* ``mobility.csv``: date, origin, destination, flow;
* ``population.csv``: region, population.

``population.csv`` defines the region universe and its order.  Floats are
written with 17 significant digits so a save/load round trip is exact.

``load_dataset`` reads each file once, row by row, never holding a whole
file.  Days must be non-decreasing in both dated files; within a day, rows
may come in any order.  It rejects, as a ``DataError`` naming the file and
line (never filling anything in):

* a bad header, a wrong column count, an unparseable date or number;
* a region missing from ``population.csv``, or named twice there;
* a calendar gap between observation days, or a mobility date that is not
  an observation day;
* a duplicate row, a region missing from an observation day (reported
  where that day ends) or a missing flow (reported after the last row);
* a non-finite value anywhere, a negative case, S/I/R count or flow, and a
  population that is not positive.

The synthetic generator runs the mechanistic core day by day, so at zero
observation noise the stored cases are an exact fixed point of the
forecaster's own rollout given the true rates and flows.
"""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date as date_type, timedelta
from pathlib import Path

import numpy as np

from .domain import (
    CompartmentState,
    MobilitySeries,
    ObservationHistory,
    PopulationVector,
    ValidatedBundle,
    validate,
)
from . import metapop
from .pipeline import WindowBatch

__all__ = [
    "DataError",
    "Dataset",
    "SyntheticScenario",
    "WindowSet",
    "atomic_write",
    "chronological_split",
    "derive_compartments",
    "generate_synthetic",
    "load_dataset",
    "mobility_schedule",
    "save_dataset",
    "true_parameter_series",
    "windowize",
]


class DataError(ValueError):
    """Malformed or inconsistent input data (CLI exit code 2)."""


@dataclass
class Dataset:
    """A complete aligned panel: observations, flows, and populations."""

    regions: list[str]
    dates: list[str]
    cases: np.ndarray
    susceptible: np.ndarray
    infected: np.ndarray
    recovered: np.ndarray
    flows: np.ndarray
    population: np.ndarray
    extras: np.ndarray | None = None

    def __post_init__(self):
        if self.extras is None:
            self.extras = np.zeros((len(self.regions), len(self.dates), 0))

    @property
    def n_regions(self) -> int:
        return len(self.regions)

    @property
    def n_days(self) -> int:
        return len(self.dates)

    @property
    def n_channels(self) -> int:
        return 4 + self.extras.shape[2]

    def stacked(self) -> np.ndarray:
        core = np.stack(
            [self.cases, self.susceptible, self.infected, self.recovered], axis=-1
        )
        if self.extras.shape[2] == 0:
            return core
        return np.concatenate([core, self.extras], axis=-1)

    def day_range(self, start: int, stop: int) -> "Dataset":
        return Dataset(
            regions=list(self.regions),
            dates=self.dates[start:stop],
            cases=self.cases[:, start:stop].copy(),
            susceptible=self.susceptible[:, start:stop].copy(),
            infected=self.infected[:, start:stop].copy(),
            recovered=self.recovered[:, start:stop].copy(),
            flows=self.flows[:, :, start:stop].copy(),
            population=self.population.copy(),
            extras=self.extras[:, start:stop].copy(),
        )

    def bundle(self) -> ValidatedBundle:
        return validate(
            ObservationHistory(
                cases=self.cases,
                susceptible=self.susceptible,
                infected=self.infected,
                recovered=self.recovered,
                extra_channels=self.extras,
            ),
            MobilitySeries(flows=self.flows, horizon_kind="history"),
            PopulationVector(sizes=self.population),
        )


# ----------------------------------------------------------------------- CSV


_INF = float("inf")


def _parse_date(raw: str, path: Path, line: int) -> str:
    try:
        return date_type.fromisoformat(raw.strip()).isoformat()
    except ValueError as err:
        raise DataError(f"{path.name}:{line}: bad date {raw!r} ({err})") from None


def _non_numeric(raw: str, column: str, path: Path, line: int) -> DataError:
    return DataError(
        f"{path.name}:{line}: column {column!r} has non-numeric value {raw!r}"
    )


def _parse_float(raw: str, column: str, path: Path, line: int) -> float:
    try:
        return float(raw)
    except ValueError:
        raise _non_numeric(raw, column, path, line) from None


def _region(lookup: dict[str, int], raw: str) -> int | None:
    """Index of the region spelled ``raw`` (surrounding blanks ignored), or
    None.  ``lookup`` starts as the name -> index map and caches each new
    spelling, so every distinct field is stripped once per file."""
    index = lookup.get(raw.strip())
    if index is not None:
        lookup[raw] = index
    return index


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
    dataset = Dataset(
        regions=regions,
        dates=dates,
        cases=values[:, :, 0],
        susceptible=values[:, :, 1],
        infected=values[:, :, 2],
        recovered=values[:, :, 3],
        flows=flows,
        population=population,
        extras=values[:, :, 4:],
    )
    dataset.bundle()  # surface invariant violations as early as possible
    return dataset


def _read_population(path: Path) -> tuple[list[str], np.ndarray]:
    population: dict[str, float] = {}
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["region", "population"]:
            raise DataError(f"{path.name}:1: header must be 'region,population'")
        for line, row in enumerate(reader, start=2):
            if len(row) < 2:
                raise DataError(f"{path.name}:{line}: expected 2 columns")
            name = row[0].strip()
            if name in population:
                raise DataError(f"{path.name}:{line}: duplicate region {name!r}")
            value = _parse_float(row[1], "population", path, line)
            if not 0.0 < value < _INF:
                raise DataError(
                    f"{path.name}:{line}: population for {name!r} "
                    f"must be > 0 and finite, got {value}"
                )
            population[name] = value
    if not population:
        raise DataError(f"{path.name}: no regions defined")
    return list(population), np.array(list(population.values()))


def _read_observations(path: Path, regions: list[str]) -> tuple[list[str], np.ndarray]:
    """Dates and the ``(N, L, C)`` channel values.  Rows of one day may come
    in any order; a day is checked for completeness as soon as it ends."""
    n = len(regions)
    lookup = {name: i for i, name in enumerate(regions)}
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        expected_head = [
            "date", "region", "cases", "susceptible", "infected", "recovered"
        ]
        if header is None or [h.strip() for h in header[:6]] != expected_head:
            raise DataError(
                f"{path.name}:1: header must start with '{','.join(expected_head)}'"
            )
        columns = [h.strip() for h in header[2:]]
        channels = len(columns)
        width = 2 + channels
        values: list[float] = []  # day-major (L, N, C), a day block at a time
        blank_day = [0.0] * (n * channels)
        dates: list[str] = []
        raw_date = last = None
        seen = bytearray(n)  # regions already read on the current day
        count = 0
        for line, row in enumerate(reader, start=2):
            if len(row) != width:
                raise DataError(
                    f"{path.name}:{line}: expected {width} columns, got {len(row)}"
                )
            if row[0] != raw_date:
                day = _parse_date(row[0], path, line)
                raw_date = row[0]
            r = lookup.get(row[1])
            if r is None and (r := _region(lookup, row[1])) is None:
                raise DataError(
                    f"{path.name}:{line}: unknown region {row[1].strip()!r} "
                    f"(not in population.csv)"
                )
            if day != last:
                if last is not None:
                    if day < last:
                        raise DataError(
                            f"{path.name}:{line}: dates must be "
                            f"non-decreasing, {day} follows {last}"
                        )
                    if count != n:
                        raise _missing_entry(path, line, regions, seen, last)
                    step = date_type.fromisoformat(day) - date_type.fromisoformat(last)
                    if step != timedelta(days=1):
                        raise DataError(
                            f"{path.name}:{line}: calendar gap, {day} "
                            f"follows {last}; dates must be consecutive days"
                        )
                base = len(values)
                values.extend(blank_day)
                seen = bytearray(n)
                count = 0
                dates.append(day)
                last = day
            if seen[r]:
                raise DataError(
                    f"{path.name}:{line}: duplicate entry for {regions[r]!r} on {day}"
                )
            seen[r] = 1
            count += 1
            try:
                parsed = list(map(float, row[2:]))
            except ValueError:
                for column, raw in zip(columns, row[2:]):
                    _parse_float(raw, column, path, line)  # raises at the culprit
                raise
            for k, value in enumerate(parsed):
                # the S/I/R core is a head count; extra channels may go negative
                if not (-_INF < value < _INF and (value >= 0.0 or k >= 4)):
                    bound = "finite" if k >= 4 else ">= 0 and finite"
                    raise DataError(
                        f"{path.name}:{line}: column {columns[k]!r} must be "
                        f"{bound}, got {value}"
                    )
            offset = base + r * channels
            values[offset : offset + channels] = parsed
    if not dates:
        raise DataError(f"{path.name}: no data rows")
    if count != n:
        raise _missing_entry(path, line, regions, seen, last)
    by_day = np.array(values).reshape(len(dates), n, channels)
    return dates, by_day.transpose(1, 0, 2).copy()


def _missing_entry(
    path: Path, line: int, regions: list[str], seen: bytearray, day: str
) -> DataError:
    name = regions[seen.index(0)]
    return DataError(f"{path.name}:{line}: missing entry for region {name!r} on {day}")


def _read_mobility(path: Path, regions: list[str], dates: list[str]) -> np.ndarray:
    """The ``(N, N, L)`` flows.  Rows of one day may come in any order; every
    origin, destination and day needs exactly one row."""
    n, length = len(regions), len(dates)
    lookup = {name: i for i, name in enumerate(regions)}
    date_index = {day: t for t, day in enumerate(dates)}
    days = dict(date_index)  # raw date field -> day index, grown as met
    flows = np.zeros(n * n * length)
    cells = memoryview(flows)
    seen = bytearray(n * n * length)  # by flat (origin, destination, day)
    count = last = 0
    line = 1
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:4]] != [
            "date",
            "origin",
            "destination",
            "flow",
        ]:
            raise DataError(
                f"{path.name}:1: header must be 'date,origin,destination,flow'"
            )
        for line, row in enumerate(reader, start=2):
            if len(row) < 4:
                raise DataError(f"{path.name}:{line}: expected 4 columns")
            t = days.get(row[0])
            if t is None:
                day = _parse_date(row[0], path, line)
                t = date_index.get(day)
                if t is None:
                    raise DataError(
                        f"{path.name}:{line}: date {day} does not appear "
                        f"in observations.csv"
                    )
                days[row[0]] = t
            # days are consecutive, so index order is calendar order
            if t < last:
                raise DataError(
                    f"{path.name}:{line}: dates must be non-decreasing, "
                    f"{dates[t]} follows {dates[last]}"
                )
            last = t
            o = lookup.get(row[1])
            if o is None and (o := _region(lookup, row[1])) is None:
                raise DataError(f"{path.name}:{line}: unknown region {row[1].strip()!r}")
            d = lookup.get(row[2])
            if d is None and (d := _region(lookup, row[2])) is None:
                raise DataError(f"{path.name}:{line}: unknown region {row[2].strip()!r}")
            flat = (o * n + d) * length + t
            if seen[flat]:
                raise DataError(
                    f"{path.name}:{line}: duplicate flow "
                    f"{regions[o]!r}->{regions[d]!r} on {dates[t]}"
                )
            seen[flat] = 1
            count += 1
            try:
                value = float(row[3])
            except ValueError:
                raise _non_numeric(row[3], "flow", path, line) from None
            if not 0.0 <= value < _INF:
                raise DataError(
                    f"{path.name}:{line}: flow must be >= 0 and finite, got {value}"
                )
            cells[flat] = value
    # Rows are unique and on known days and regions, so a short count means
    # some flows are missing; zero-filling them would invent data.
    expected = n * n * length
    if count != expected:
        # the first unmarked cell in (day, origin, destination) order
        marks = np.frombuffer(seen, dtype=np.uint8).reshape(n, n, length)
        t, o, d = np.unravel_index(np.argmin(marks.transpose(2, 0, 1)), (length, n, n))
        raise DataError(
            f"{path.name}:{line}: {count} flow rows, expected "
            f"{n}*{n}*{length} = {expected} (every origin, destination and day); "
            f"first missing: {regions[o]!r}->{regions[d]!r} on {dates[t]}"
        )
    return flows.reshape(n, n, length)


@contextmanager
def atomic_write(path: str | Path, binary: bool = False):
    """Write ``path`` all at once: yield a handle to a temporary sibling file,
    then move it over ``path`` only after the block finishes cleanly.

    A failure partway removes the temporary file and leaves whatever was at
    ``path`` before byte-identical.
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
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def save_dataset(dataset: Dataset, directory: str | Path) -> None:
    """Write the three CSV files (round-trip exact via 17 significant digits)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with (directory / "population.csv").open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["region", "population"])
        for name, size in zip(dataset.regions, dataset.population):
            writer.writerow([name, _fmt(size)])
    extra_names = [f"extra{k}" for k in range(dataset.extras.shape[2])]
    with (directory / "observations.csv").open(
        "w", newline="", encoding="utf-8"
    ) as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["date", "region", "cases", "susceptible", "infected", "recovered"]
            + extra_names
        )
        for d_idx, day in enumerate(dataset.dates):
            for r_idx, name in enumerate(dataset.regions):
                writer.writerow(
                    [
                        day,
                        name,
                        _fmt(dataset.cases[r_idx, d_idx]),
                        _fmt(dataset.susceptible[r_idx, d_idx]),
                        _fmt(dataset.infected[r_idx, d_idx]),
                        _fmt(dataset.recovered[r_idx, d_idx]),
                    ]
                    + [_fmt(v) for v in dataset.extras[r_idx, d_idx]]
                )
    with (directory / "mobility.csv").open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["date", "origin", "destination", "flow"])
        for d_idx, day in enumerate(dataset.dates):
            for o_idx, origin in enumerate(dataset.regions):
                for t_idx, destination in enumerate(dataset.regions):
                    writer.writerow(
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

    ``mobility`` is a read-only view of the segment's flows; ``batch`` copies.
    """

    observations: np.ndarray  # (W, N, T_in, C)
    mobility: np.ndarray  # (W, N, N, T_in)
    susceptible0: np.ndarray  # (W, N)
    infected0: np.ndarray
    recovered0: np.ndarray
    targets: np.ndarray  # (W, N, T_out)
    end_dates: list[str]
    population: np.ndarray
    regions: list[str]
    t_in: int
    t_out: int

    def __len__(self) -> int:
        return self.observations.shape[0]

    def batch(self, indices) -> WindowBatch:
        indices = np.asarray(indices, dtype=int)
        return WindowBatch(
            observations=self.observations[indices],
            mobility=self.mobility[indices],
            susceptible0=self.susceptible0[indices],
            infected0=self.infected0[indices],
            recovered0=self.recovered0[indices],
            population=self.population,
            targets=self.targets[indices],
        )

    def full_batch(self) -> WindowBatch:
        return self.batch(np.arange(len(self)))


def windowize(dataset: Dataset, t_in: int, t_out: int) -> WindowSet:
    """All windows of ``t_in`` observed days plus ``t_out`` target days."""
    length = dataset.n_days
    count = length - (t_in + t_out) + 1
    if count < 1:
        raise DataError(
            f"segment of {length} days is too short for {t_in}+{t_out}-day windows"
        )
    stacked = dataset.stacked()
    n, channels = dataset.n_regions, dataset.n_channels
    observations = np.empty((count, n, t_in, channels))
    targets = np.empty((count, n, t_out))
    susceptible0 = np.empty((count, n))
    infected0 = np.empty((count, n))
    recovered0 = np.empty((count, n))
    end_dates = []
    for w in range(count):
        stop = w + t_in
        observations[w] = stacked[:, w:stop]
        targets[w] = dataset.cases[:, stop : stop + t_out]
        susceptible0[w] = dataset.susceptible[:, stop - 1]
        infected0[w] = dataset.infected[:, stop - 1]
        recovered0[w] = dataset.recovered[:, stop - 1]
        end_dates.append(dataset.dates[stop - 1])
    mobility = np.lib.stride_tricks.sliding_window_view(dataset.flows, t_in, axis=2)
    return WindowSet(
        observations=observations,
        mobility=mobility[:, :, :count].transpose(2, 0, 1, 3),
        susceptible0=susceptible0,
        infected0=infected0,
        recovered0=recovered0,
        targets=targets,
        end_dates=end_dates,
        population=dataset.population.copy(),
        regions=list(dataset.regions),
        t_in=t_in,
        t_out=t_out,
    )


def derive_compartments(
    cases: np.ndarray, population: np.ndarray, recovery_days: int = 10
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Convention helper for cases-only sources: S/I/R from a fixed delay.

    Assumes every case stays infectious for exactly ``recovery_days`` days:
    infected is the trailing sum of that many daily case counts, recovered
    is everything older, susceptible is the remaining population (floored
    at zero).  This is a stated convention, not an estimate.
    """
    cases = np.asarray(cases, dtype=np.float64)
    cumulative = np.cumsum(cases, axis=1)
    shifted = np.zeros_like(cumulative)
    if cases.shape[1] > recovery_days:
        shifted[:, recovery_days:] = cumulative[:, :-recovery_days]
    infected = cumulative - shifted
    recovered = shifted
    susceptible = np.maximum(
        np.asarray(population, dtype=np.float64)[:, None] - infected - recovered, 0.0
    )
    return susceptible, infected, recovered


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
        if self.beta_kind not in ("seasonal", "bump", "constant"):
            raise DataError(
                f"beta_kind must be seasonal, bump, or constant, got "
                f"{self.beta_kind!r}"
            )
        if not (0.0 < self.beta_low <= self.beta_high < 1.0):
            raise DataError("need 0 < beta_low <= beta_high < 1")


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
    state = CompartmentState(
        susceptible=population - initial_infected,
        infected=initial_infected,
        recovered=np.zeros(n),
    )
    cases = np.empty((n, length))
    susceptible = np.empty((n, length))
    infected = np.empty((n, length))
    recovered = np.empty((n, length))
    for t in range(length):
        strength = metapop.transmission_strength(
            flows[:, :, t], population, state.infected
        )
        state, new_inf = metapop.step(state, beta[:, t], gamma[:, t], strength)
        cases[:, t] = new_inf
        susceptible[:, t] = state.susceptible
        infected[:, t] = state.infected
        recovered[:, t] = state.recovered

    observed = cases
    if scenario.noise > 0.0:
        rng = _noise_rng(scenario)
        sigma = scenario.noise
        observed = cases * np.exp(
            rng.normal(-0.5 * sigma * sigma, sigma, size=cases.shape)
        )

    start = date_type.fromisoformat(scenario.start_date)
    dates = [(start + timedelta(days=k)).isoformat() for k in range(length)]
    return Dataset(
        regions=[f"region{k:02d}" for k in range(n)],
        dates=dates,
        cases=observed,
        susceptible=susceptible,
        infected=infected,
        recovered=recovered,
        flows=flows,
        population=population,
    )
