"""Data layer: the panel type, CSV round trips and loader checks,
chronological splitting, window slicing, and the seeded synthetic generator."""

from __future__ import annotations

import csv
import errno
import hashlib
import io
import json
import random
import re
import tempfile
import tracemalloc
import zlib
from datetime import date, timedelta
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from epicast import datasets as datasets_module, metapop
from epicast.domain import ConfigRangeError
from epicast.datasets import (
    CORE_CHANNELS,
    DataError,
    Dataset,
    SyntheticScenario,
    WindowSet,
    atomic_write,
    channel_scaler,
    chronological_split,
    frame_crc,
    generate_synthetic,
    load_dataset,
    mobility_schedule,
    save_dataset,
    true_parameter_series,
    windowize,
)

from conftest import rng_for, small_scenario


def panel(n=2, length=20, extras=0, seed=600):
    """Hand-built valid panel with distinctive per-day values."""
    rng = rng_for(seed)
    start = date(2021, 3, 1)
    dates = [(start + timedelta(days=k)).isoformat() for k in range(length)]
    pop = rng.uniform(1e3, 1e4, size=n)
    extra = rng.uniform(0, 1, size=(n, length, extras)) if extras else np.empty((n, length, 0))
    # cases, susceptible, infected, recovered
    core = [
        rng.uniform(low, high, size=(n, length))
        for low, high in ((0, 100), (100, 1000), (0, 100), (0, 100))
    ]
    return Dataset(
        regions=[f"r{k}" for k in range(n)],
        dates=dates,
        values=np.concatenate([np.stack(core, axis=-1), extra], axis=-1),
        flows=rng.uniform(0, 50, size=(n, n, length)),
        population=pop,
    )


class TestCsvRoundTrip:
    def test_bit_exact(self, tmp_path):
        original = panel(3, 12, extras=2)
        save_dataset(original, tmp_path)
        loaded = load_dataset(tmp_path)
        assert loaded.regions == original.regions
        assert loaded.dates == original.dates
        for field in ("values", "flows", "population"):
            np.testing.assert_array_equal(
                getattr(loaded, field), getattr(original, field), err_msg=field
            )

    def test_synthetic_round_trip(self, tmp_path):
        original = generate_synthetic(small_scenario())
        save_dataset(original, tmp_path)
        loaded = load_dataset(tmp_path)
        np.testing.assert_array_equal(loaded.values, original.values)
        np.testing.assert_array_equal(loaded.flows, original.flows)


class TestAtomicWrite:
    def test_failed_move_names_the_target_alone(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()
        with pytest.raises(IsADirectoryError) as caught:
            with atomic_write(target) as handle:
                handle.write("new")
        assert caught.value.filename == str(target)
        assert caught.value.filename2 is None
        assert ".tmp" not in str(caught.value)
        assert [path.name for path in tmp_path.iterdir()] == ["taken"]

    @pytest.mark.parametrize("name", ["population.csv", "observations.csv", "mobility.csv"])
    def test_panel_file_that_is_not_a_file_is_refused_before_any_write(self, tmp_path, name):
        save_dataset(panel(2, 3), tmp_path)
        (tmp_path / name).unlink()
        (tmp_path / name).mkdir()
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
        with pytest.raises(DataError, match=rf"{re.escape(name)}: exists and is not a regular file"):
            save_dataset(panel(2, 4, seed=601), tmp_path)
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            ["population.csv", "observations.csv", "mobility.csv"]
        )
        after = {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
        assert after == before

    def test_a_save_writes_the_csvs_alone_and_leaves_panel_bin_be(self, tmp_path):
        # the copy is the loader's: not even a directory in its place stops a save
        (tmp_path / "panel.bin").mkdir()
        original = panel(2, 3)
        save_dataset(original, tmp_path)
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            ["population.csv", "observations.csv", "mobility.csv", "panel.bin"]
        )
        assert (tmp_path / "panel.bin").is_dir()
        assert_same_panel(load_dataset(tmp_path), original)


class TestDatasetPanel:
    def test_sizes_and_values_shape(self):
        data = panel(3, 7)
        assert data.n_regions == 3
        assert data.n_days == 7
        assert data.values.shape == (3, 7, 4)

    @pytest.mark.parametrize("extras", [0, 2])
    def test_channels_follow_the_observation_columns(self, tmp_path, extras):
        # each channel of values is one observations.csv column, in file order
        save_dataset(panel(2, 4, extras=extras), tmp_path)
        loaded = load_dataset(tmp_path)
        with (tmp_path / "observations.csv").open(newline="") as handle:
            header, *rows = list(csv.reader(handle))
        channels = header[2:]
        assert channels == [*CORE_CHANNELS, *(f"extra{k}" for k in range(extras))]
        assert loaded.values.shape == (2, 4, 4 + extras)
        for row in rows:
            r, d = loaded.regions.index(row[1]), loaded.dates.index(row[0])
            assert [float(v) for v in row[2:]] == loaded.values[r, d].tolist()

    def test_day_range_slices_every_field(self):
        data = panel(2, 10, extras=1)
        part = data.day_range(3, 7)
        assert part.regions == data.regions
        assert part.dates == data.dates[3:7]
        np.testing.assert_array_equal(part.values, data.values[:, 3:7])
        np.testing.assert_array_equal(part.flows, data.flows[:, :, 3:7])
        np.testing.assert_array_equal(part.population, data.population)

    def test_day_range_is_read_only_views(self):
        data = panel(2, 6, extras=1)
        before = data.values.copy(), data.flows.copy(), data.population.copy()
        part = data.day_range(1, 4)
        for name in ("values", "flows", "population"):
            array, whole = getattr(part, name), getattr(data, name)
            assert np.shares_memory(array, whole), name
            assert not array.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                array[...] = -1.0
        # the panel itself stays writable and unchanged
        assert data.values.flags.writeable and data.flows.flags.writeable
        np.testing.assert_array_equal(data.values, before[0])
        np.testing.assert_array_equal(data.flows, before[1])
        np.testing.assert_array_equal(data.population, before[2])


class TestLoadErrors:
    def write_valid(self, directory):
        save_dataset(panel(2, 3), directory)

    def replace_line(self, path, line_no, new_line):
        lines = path.read_text().splitlines()
        lines[line_no - 1] = new_line
        path.write_text("\n".join(lines) + "\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="missing input file"):
            load_dataset(tmp_path)

    def test_bad_float_reports_file_and_line(self, tmp_path):
        self.write_valid(tmp_path)
        self.replace_line(tmp_path / "population.csv", 3, "r1,abc")
        with pytest.raises(DataError, match=r"population\.csv:3.*non-numeric.*'abc'"):
            load_dataset(tmp_path)

    def test_bad_date_reports_file_and_line(self, tmp_path):
        self.write_valid(tmp_path)
        obs = tmp_path / "observations.csv"
        line = obs.read_text().splitlines()[1]
        self.replace_line(obs, 2, line.replace("2021-03-01", "03/01/2021"))
        with pytest.raises(DataError, match=r"observations\.csv:2: bad date"):
            load_dataset(tmp_path)

    def test_unknown_region_in_observations(self, tmp_path):
        self.write_valid(tmp_path)
        obs = tmp_path / "observations.csv"
        line = obs.read_text().splitlines()[1]
        self.replace_line(obs, 2, line.replace("r0", "ghost"))
        with pytest.raises(DataError, match="unknown region 'ghost'"):
            load_dataset(tmp_path)

    def test_duplicate_observation_row(self, tmp_path):
        self.write_valid(tmp_path)
        obs = tmp_path / "observations.csv"
        lines = obs.read_text().splitlines()
        lines.insert(2, lines[1])
        obs.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="duplicate entry"):
            load_dataset(tmp_path)

    def test_missing_region_day_pair(self, tmp_path):
        self.write_valid(tmp_path)
        obs = tmp_path / "observations.csv"
        lines = obs.read_text().splitlines()
        del lines[2]  # drop (day 1, r1)
        obs.write_text("\n".join(lines) + "\n")
        with pytest.raises(
            DataError,
            match=r"observations\.csv:3: missing entry for region 'r1' on 2021-03-01",
        ):
            load_dataset(tmp_path)

    def test_wrong_observation_header(self, tmp_path):
        self.write_valid(tmp_path)
        obs = tmp_path / "observations.csv"
        self.replace_line(obs, 1, "day,region,cases,susceptible,infected,recovered")
        with pytest.raises(DataError, match=r"observations\.csv:1: header"):
            load_dataset(tmp_path)

    def test_negative_flow_rejected(self, tmp_path):
        self.write_valid(tmp_path)
        mob = tmp_path / "mobility.csv"
        line = mob.read_text().splitlines()[1].rsplit(",", 1)[0]
        self.replace_line(mob, 2, line + ",-4.0")
        with pytest.raises(DataError, match=r"mobility\.csv:2: flow must be >= 0"):
            load_dataset(tmp_path)

    def test_mobility_date_must_exist_in_observations(self, tmp_path):
        self.write_valid(tmp_path)
        mob = tmp_path / "mobility.csv"
        line = mob.read_text().splitlines()[1]
        self.replace_line(mob, 2, line.replace("2021-03-01", "2020-01-01"))
        with pytest.raises(DataError, match="does not appear"):
            load_dataset(tmp_path)

    def test_calendar_gap_rejected(self, tmp_path):
        save_dataset(panel(2, 5), tmp_path)
        obs = tmp_path / "observations.csv"
        lines = obs.read_text().splitlines()
        # drop both regions of 2021-03-03; line 6 then holds 2021-03-04
        obs.write_text("\n".join(lines[:5] + lines[7:]) + "\n")
        mob = tmp_path / "mobility.csv"
        mob.write_text(
            "\n".join(l for l in mob.read_text().splitlines() if "2021-03-03" not in l)
            + "\n"
        )
        with pytest.raises(
            DataError, match=r"observations\.csv:6: calendar gap, 2021-03-04 follows 2021-03-02"
        ):
            load_dataset(tmp_path)

    def test_missing_mobility_row_rejected(self, tmp_path):
        self.write_valid(tmp_path)
        mob = tmp_path / "mobility.csv"
        lines = mob.read_text().splitlines()
        del lines[6]  # the r0 -> r1 flow on 2021-03-02
        mob.write_text("\n".join(lines) + "\n")
        with pytest.raises(
            DataError,
            match=r"mobility\.csv:12: 11 flow rows, expected 2\*2\*3 = 12 .*"
            r"first missing: 'r0'->'r1' on 2021-03-02",
        ):
            load_dataset(tmp_path)

    def test_duplicate_region_in_population(self, tmp_path):
        self.write_valid(tmp_path)
        pop = tmp_path / "population.csv"
        self.replace_line(pop, 3, "r0,500.0")
        with pytest.raises(DataError, match="duplicate region 'r0'"):
            load_dataset(tmp_path)

    def test_non_finite_extra_channel_rejected(self, tmp_path):
        save_dataset(panel(2, 3, extras=1), tmp_path)
        obs = tmp_path / "observations.csv"
        line = obs.read_text().splitlines()[2].rsplit(",", 1)[0]
        self.replace_line(obs, 3, line + ",nan")
        with pytest.raises(
            DataError, match=r"observations\.csv:3: column 'extra0' must be finite, got nan"
        ):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("value", ["inf", "-inf"])
    def test_infinite_extra_channel_rejected(self, tmp_path, value):
        save_dataset(panel(2, 3, extras=1), tmp_path)
        obs = tmp_path / "observations.csv"
        line = obs.read_text().splitlines()[3].rsplit(",", 1)[0]
        self.replace_line(obs, 4, line + "," + value)
        with pytest.raises(
            DataError,
            match=rf"observations\.csv:4: column 'extra0' must be finite, got {value}",
        ):
            load_dataset(tmp_path)

    def test_negative_extra_channel_is_accepted(self, tmp_path):
        save_dataset(panel(2, 3, extras=1), tmp_path)
        obs = tmp_path / "observations.csv"
        line = obs.read_text().splitlines()[2].rsplit(",", 1)[0]
        self.replace_line(obs, 3, line + ",-0.5")
        assert load_dataset(tmp_path).values[1, 0, 4] == -0.5

    def test_population_region_without_observations(self, tmp_path):
        self.write_valid(tmp_path)
        pop = tmp_path / "population.csv"
        pop.write_text(pop.read_text().rstrip("\n") + "\nr2,500.0\n")
        with pytest.raises(
            DataError,
            match=r"observations\.csv:4: missing entry for region 'r2' on 2021-03-01",
        ):
            load_dataset(tmp_path)

    def test_observed_day_without_flows(self, tmp_path):
        save_dataset(panel(2, 4), tmp_path)
        mob = tmp_path / "mobility.csv"
        mob.write_text(
            "\n".join(l for l in mob.read_text().splitlines() if "2021-03-04" not in l)
            + "\n"
        )
        with pytest.raises(
            DataError,
            match=r"mobility\.csv:13: 12 flow rows, expected 2\*2\*4 = 16 .*"
            r"first missing: 'r0'->'r0' on 2021-03-04",
        ):
            load_dataset(tmp_path)


def edit_line(path: Path, line: int, change) -> None:
    """Replace 1-based ``line`` of ``path`` with ``change(old_line)``,
    keeping the file's CRLF line ends."""
    lines = path.read_bytes().split(b"\r\n")
    lines[line - 1] = change(lines[line - 1])
    path.write_bytes(b"\r\n".join(lines))


def with_value(value: bytes):
    """A line edit that replaces the last field."""
    return lambda line: line.rsplit(b",", 1)[0] + b"," + value


def swap(old: bytes, new: bytes):
    """A line edit that replaces the first ``old`` with ``new``."""
    return lambda line: line.replace(old, new, 1)


class TestLoaderInputRules:
    """Odd but possible CSV text: what loads unchanged, what is refused, and
    where the refusal points."""

    def saved(self, directory, **kwargs):
        original = panel(**kwargs)
        save_dataset(original, directory)
        return original

    def test_files_are_written_with_crlf_and_load_with_any_line_end(self, tmp_path):
        original = self.saved(tmp_path)
        for name in ("population.csv", "observations.csv", "mobility.csv"):
            assert b"\r\n" in (tmp_path / name).read_bytes()
        assert_bit_identical(load_dataset(tmp_path), original)
        for end in (b"\n", b"\r"):
            for name in ("population.csv", "observations.csv", "mobility.csv"):
                path = tmp_path / name
                path.write_bytes(path.read_bytes().replace(b"\r\n", end))
            assert_bit_identical(load_dataset(tmp_path), original)
            self.saved(tmp_path)

    @pytest.mark.parametrize(
        "name,line,message",
        [
            ("observations.csv", 4, "expected 6 columns, got 0"),
            ("mobility.csv", 6, "expected 4 columns"),
        ],
    )
    def test_blank_line_is_a_record_of_no_columns(self, tmp_path, name, line, message):
        self.saved(tmp_path)
        edit_line(tmp_path / name, line, lambda old: b"\r\n" + old)
        with pytest.raises(DataError, match=rf"^{re.escape(name)}:{line}: {message}$"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize(
        "name,old,new,where",
        [
            # the day's first three flows each name "two\nlines" once or
            # twice, so the fourth, r1->r1, starts on line 9
            ("mobility.csv", rb"(2021-03-01,r1,r1,)[^\r]*", rb"\g<1>-1",
             r"9: flow must be >= 0 and finite, got -1\.0$"),
            # day 2's r1 row, after three lines of "two\nlines" rows
            ("observations.csv", rb"(2021-03-02,r1,)[^,]*", rb"\g<1>-1",
             "7: column 'cases' must be >= 0"),
            # day 1 loses r1: reported where day 2 starts, on its first row
            ("observations.csv", rb"2021-03-01,r1,[^\r]*\r\n", b"",
             "4: missing entry for region 'r1' on 2021-03-01"),
            # the last day loses r1: reported on the last row, where it starts
            ("observations.csv", rb"2021-03-03,r1,[^\r]*\r\n", b"",
             "8: missing entry for region 'r1' on 2021-03-03"),
        ],
    )
    def test_a_defect_after_a_name_that_spans_lines_names_the_line_its_row_starts_on(
        self, tmp_path, name, old, new, where
    ):
        original = panel(2, 3)
        original.regions = ["two\nlines", "r1"]
        save_dataset(original, tmp_path)
        path = tmp_path / name
        path.write_bytes(re.sub(old, new, path.read_bytes(), 1))
        with pytest.raises(DataError, match=rf"^{re.escape(name)}:{where}"):
            load_dataset(tmp_path)

    def test_blank_line_at_the_end_is_refused(self, tmp_path):
        self.saved(tmp_path, n=2, length=3)
        mob = tmp_path / "mobility.csv"
        mob.write_bytes(mob.read_bytes() + b"\r\n")
        with pytest.raises(DataError, match=r"^mobility\.csv:14: expected 4 columns$"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("name", ["observations.csv", "mobility.csv"])
    def test_hash_starts_no_comment(self, tmp_path, name):
        self.saved(tmp_path)
        edit_line(tmp_path / name, 3, lambda old: b"#" + old)
        with pytest.raises(
            DataError, match=rf"^{re.escape(name)}:3: bad date '#2021-03-01' "
        ):
            load_dataset(tmp_path)

    def test_quoted_names_with_commas_quotes_and_line_breaks_round_trip(self, tmp_path):
        original = panel(3, 4)
        original.regions = ["Smith, Jones", 'The "Hub"', "two\nlines"]
        save_dataset(original, tmp_path)
        assert b'"The ""Hub"""' in (tmp_path / "mobility.csv").read_bytes()
        assert_bit_identical(load_dataset(tmp_path), original)

    def test_non_ascii_names_round_trip(self, tmp_path):
        original = panel(3, 4)
        original.regions = ["Zürich", "東京", "São Paulo"]
        save_dataset(original, tmp_path)
        assert_bit_identical(load_dataset(tmp_path), original)

    def test_names_and_dates_padded_with_blanks_load_unchanged(self, tmp_path):
        original = self.saved(tmp_path)
        # wider than any field the parse starts with
        wide = b" " * 40 + b"r1" + b" " * 40
        edit_line(tmp_path / "observations.csv", 3, swap(b",r1,", b",  r1 ,"))
        edit_line(tmp_path / "mobility.csv", 3, swap(b",r1,", b"," + wide + b","))
        edit_line(tmp_path / "mobility.csv", 4, lambda old: b"   " + old)
        # every field of one row, the value wider than its first parse
        padded = b", " + b" " * 30
        edit_line(tmp_path / "mobility.csv", 5, lambda old: old.replace(b",", padded))
        assert_bit_identical(load_dataset(tmp_path), original)

    def test_dates_padded_with_blanks_mix_with_canonical_ones(self, tmp_path):
        original = self.saved(tmp_path)
        # lines 2 and 4 are the first records of days 1 and 2, so they
        # spell the panel's first dates; line 9 is day 4's second record
        for line in (2, 4):
            edit_line(tmp_path / "observations.csv", line, lambda old: b"  " + old)
        edit_line(tmp_path / "observations.csv", 9, swap(b"2021-03-04", b"2021-03-04\t"))
        for line in (3, 9):
            edit_line(tmp_path / "mobility.csv", line, swap(b"2021", b" 2021"))
        assert b"2021-03-04\t" in (tmp_path / "observations.csv").read_bytes()
        loaded = load_dataset(tmp_path)
        assert loaded.dates == original.dates
        assert_bit_identical(loaded, original)

    @pytest.mark.parametrize("name,line", [("observations.csv", 3), ("mobility.csv", 4)])
    @pytest.mark.parametrize(
        "spelling,reason",
        [
            ("2021-02-29", "day is out of range for month"),
            ("2020-13-01", "month must be in 1..12"),
            ("0000-01-01", "year 0 is out of range"),
            # read by date.fromisoformat on Python 3.11, refused on 3.10
            ("20210301", "Invalid isoformat string: '20210301'"),
            ("2021-W09-1", "Invalid isoformat string: '2021-W09-1'"),
            (" 2021-3-1", "Invalid isoformat string: '2021-3-1'"),
        ],
    )
    def test_only_real_yyyy_mm_dd_dates_are_read(self, tmp_path, name, line, spelling, reason):
        self.saved(tmp_path)
        edit_line(tmp_path / name, line, swap(b"2021-03-01", spelling.encode()))
        message = f"bad date {spelling!r} ({reason})"
        with pytest.raises(DataError, match=rf"^{re.escape(name)}:{line}: {re.escape(message)}$"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize(
        "line,old,new", [(2, b"2021-03-01", b"2021-02-28"), (13, b"2021-03-03", b"2021-03-04")]
    )
    def test_mobility_date_just_outside_the_observed_days(self, tmp_path, line, old, new):
        self.saved(tmp_path, n=2, length=3)
        edit_line(tmp_path / "mobility.csv", line, swap(old, new))
        message = f"date {new.decode()} does not appear in observations.csv"
        with pytest.raises(DataError, match=rf"^mobility\.csv:{line}: {message}$"):
            load_dataset(tmp_path)

    def test_repeated_flow_in_a_file_that_covers_every_cell(self, tmp_path):
        self.saved(tmp_path, n=2, length=3)
        edit_line(tmp_path / "mobility.csv", 5, lambda old: old + b"\r\n" + old)
        with pytest.raises(
            DataError, match=r"^mobility\.csv:6: duplicate flow 'r1'->'r1' on 2021-03-01$"
        ):
            load_dataset(tmp_path)

    def test_name_longer_than_every_known_name_is_named_in_full(self, tmp_path):
        self.saved(tmp_path)
        edit_line(tmp_path / "mobility.csv", 4, swap(b",r1,", b",r1-and-then-some,"))
        with pytest.raises(
            DataError, match=r"^mobility\.csv:4: unknown region 'r1-and-then-some'$"
        ):
            load_dataset(tmp_path)

    def test_mobility_columns_after_the_fourth_are_ignored(self, tmp_path):
        original = self.saved(tmp_path)
        edit_line(tmp_path / "mobility.csv", 3, lambda old: old + b",note,more")
        assert_bit_identical(load_dataset(tmp_path), original)

    def test_observation_row_with_an_extra_column_is_refused(self, tmp_path):
        self.saved(tmp_path)
        edit_line(tmp_path / "observations.csv", 3, lambda old: old + b",1.0")
        with pytest.raises(
            DataError, match=r"^observations\.csv:3: expected 6 columns, got 7$"
        ):
            load_dataset(tmp_path)

    def test_values_are_read_as_float_reads_them(self, tmp_path):
        original = self.saved(tmp_path)
        edit_line(tmp_path / "mobility.csv", 2, with_value(b"1_000"))
        edit_line(tmp_path / "observations.csv", 2, with_value(b" 2_500.5 "))
        loaded = load_dataset(tmp_path)
        assert loaded.flows[0, 0, 0] == 1000.0
        assert loaded.values[0, 0, 3] == 2500.5  # recovered
        loaded.flows[0, 0, 0] = original.flows[0, 0, 0]
        loaded.values[0, 0, 3] = original.values[0, 0, 3]
        assert_bit_identical(loaded, original)

    @pytest.mark.parametrize(
        "name,edits,where",
        [
            # a misfit after a bad value: the value's record is first
            ("mobility.csv", [(3, with_value(b"abc")), (6, lambda old: b"x")],
             r"3: column 'flow' has non-numeric value 'abc'"),
            # and the other way round
            ("mobility.csv", [(3, lambda old: b"x"), (6, with_value(b"abc"))],
             r"3: expected 4 columns"),
            # a check that runs late (the range) before one that runs early
            ("mobility.csv",
             [(3, with_value(b"-1")), (5, swap(b",r0,", b",ghost,"))],
             r"3: flow must be >= 0 and finite, got -1\.0"),
            ("observations.csv",
             [(3, with_value(b"nan")), (6, swap(b",r0,", b",ghost,"))],
             r"3: column 'recovered' must be >= 0 and finite, got nan"),
            ("observations.csv",
             [(4, swap(b",r0,", b",ghost,")), (6, lambda old: b"")],
             r"4: unknown region 'ghost' \(not in population\.csv\)"),
            # a bad byte is the defect of its line, not of the whole file
            ("population.csv",
             [(1, swap(b"region", b"regoin")), (3, swap(b"r1", b"r\xff1"))],
             r"1: header must be 'region,population'"),
            ("population.csv", [(3, with_value(b"abc")), (5, with_value(b"1\0"))],
             r"3: column 'population' has non-numeric value 'abc'"),
        ],
    )
    def test_two_defects_report_the_earlier_record(self, tmp_path, name, edits, where):
        self.saved(tmp_path, n=4 if name == "population.csv" else 2)
        for line, change in edits:
            edit_line(tmp_path / name, line, change)
        with pytest.raises(DataError, match=rf"^{re.escape(name)}:{where}$"):
            load_dataset(tmp_path)

    def test_nul_byte_is_refused(self, tmp_path):
        self.saved(tmp_path)
        edit_line(tmp_path / "mobility.csv", 3, with_value(b"1.5\0"))
        with pytest.raises(DataError, match=r"^mobility\.csv:3: a NUL byte$"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize(
        "name,line,change",
        [
            ("population.csv", 1, swap(b"region", b"regi\xffon")),
            ("population.csv", 3, swap(b"r1", b"r\xff1")),
            ("mobility.csv", 4, lambda old: old + b",n\xffte"),
        ],
        ids=["header", "region-name", "mobility-column-after-the-fourth"],
    )
    def test_byte_that_is_not_utf8_is_refused(self, tmp_path, name, line, change):
        self.saved(tmp_path)
        edit_line(tmp_path / name, line, change)
        with pytest.raises(
            DataError, match=rf"^{re.escape(name)}:{line}: byte 0xff is not valid UTF-8$"
        ):
            load_dataset(tmp_path)

    @pytest.mark.parametrize(
        "byte,message", [(b"\0", "a NUL byte"), (b"\xff", "byte 0xff is not valid UTF-8")]
    )
    @pytest.mark.parametrize("end", [b"\n", b"\r"])
    def test_bad_byte_line_counts_every_line_end(self, tmp_path, byte, message, end):
        self.saved(tmp_path)
        edit_line(tmp_path / "mobility.csv", 3, with_value(b"1.5" + byte))
        path = tmp_path / "mobility.csv"
        path.write_bytes(path.read_bytes().replace(b"\r\n", end))
        with pytest.raises(DataError, match=rf"^mobility\.csv:3: {message}$"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize(
        "byte,message", [(b"\0", "a NUL byte"), (b"\xff", "byte 0xff is not valid UTF-8")]
    )
    def test_a_bad_byte_in_a_quoted_name_is_the_defect_of_its_own_line(
        self, tmp_path, byte, message
    ):
        # the record starts on line 2 and its name runs onto line 3
        self.saved(tmp_path)
        (tmp_path / "population.csv").write_bytes(
            b'region,population\r\n"r0\r\nx' + byte + b'",5\r\nr1,6\r\n'
        )
        with pytest.raises(DataError, match=rf"^population\.csv:3: {message}$"):
            load_dataset(tmp_path)


class TestDecodeCheckInBlocks:
    """The loader checks a CSV's decoded text ``_TEXT_BLOCK`` characters of
    whole lines at a time; at every block size it refuses the byte, for the
    reason and on the line, that a check of the whole file refuses."""

    @staticmethod
    def read(directory: Path, data: bytes, block: int, monkeypatch):
        """The regions of a ``population.csv`` whose header is followed by
        ``data``, or the line and reason of its refusal."""
        monkeypatch.setattr(datasets_module, "_TEXT_BLOCK", block)
        path = directory / "population.csv"
        path.write_bytes(b"region,population\r\n" + data)
        try:
            return datasets_module._read_population(path)[0]
        except DataError as err:
            line, why = re.fullmatch(r"population\.csv:(\d+): (.*)", str(err)).groups()
            return int(line), why

    @pytest.mark.parametrize("block", range(1, 6))
    def test_characters_of_several_bytes_are_valid(self, tmp_path, monkeypatch, block):
        data = "é,1\r\nr€1,2\r\n😀,3\r\n€€😀é,4\r\n".encode()
        assert self.read(tmp_path, data, block, monkeypatch) == ["é", "r€1", "😀", "€€😀é"]

    @pytest.mark.parametrize("block", range(1, 6))
    @pytest.mark.parametrize(
        "data,byte",
        [(b"a,1\r\n\xe2\x82x,2\r\n", 0xE2),  # a three-byte character cut short
         (b"a,1\r\nb,2\xf0\x9f\x98", 0xF0),  # a four-byte one cut by the end of the file
         (b"a,1\r\nb\xed\xa0\x80,2\r\n", 0xED)],  # a surrogate, which UTF-8 refuses
        ids=["cut-short", "at-the-end", "surrogate"],
    )
    def test_a_bad_character_is_reported_at_its_first_byte(
        self, tmp_path, monkeypatch, block, data, byte
    ):
        assert self.read(tmp_path, data, block, monkeypatch) == (
            3, f"byte 0x{byte:02x} is not valid UTF-8"
        )

    @pytest.mark.parametrize("block", range(1, 6))
    def test_crlf_cr_and_lf_each_end_one_line(self, tmp_path, monkeypatch, block):
        # lines 3 to 7 are one record: a quoted name with a blank line after
        # a CRLF and after a CR
        data = b'ab,1\r\n"c\r\n\r\nd\r\re",2\n\xff,3'
        assert self.read(tmp_path, data, block, monkeypatch) == (
            8, "byte 0xff is not valid UTF-8"
        )

    @pytest.mark.parametrize("pad", range(8169, 8173))
    def test_a_crlf_across_the_decoders_chunks_ends_one_line(self, tmp_path, monkeypatch, pad):
        # the header's 19 bytes and a name of ``pad`` bytes put line 2's
        # CRLF at bytes 8,190 to 8,194, across the end of the decoder's
        # first 8,192-byte read
        data = b"x" * pad + b",1\r\n\r\n"
        assert self.read(tmp_path, data, 1 << 16, monkeypatch) == (3, "expected 2 columns")

    @pytest.mark.parametrize("block", [1, 2, 4, 8])
    @pytest.mark.parametrize("between", [b"x", b"x,3\r\ny"], ids=["same-line", "next-line"])
    @pytest.mark.parametrize(
        "byte,why",
        [(b"\0", "a NUL byte"), (b"\xff", "byte 0xff is not valid UTF-8"),
         (b"\x80", "byte 0x80 is not valid UTF-8")],
        ids=["nul", "0xff", "continuation"],
    )
    def test_the_first_bad_byte_is_reported(
        self, tmp_path, monkeypatch, block, between, byte, why
    ):
        # a NUL after a bad byte, and a bad byte after a NUL, on the same
        # line or the next, are not the first defect
        later = b"\xff" if byte == b"\0" else b"\0"
        data = b"ab,1\r\ncd,2\r\n" + byte + between + later + b",4\r\n"
        assert self.read(tmp_path, data, block, monkeypatch) == (4, why)

    @pytest.mark.parametrize("block", [None, 1, 3, 64], ids=["64 KiB", "1", "3", "64"])
    @pytest.mark.parametrize(
        "edit,message",
        [(None, None), (with_value(b"1.5\0"), "a NUL byte"),
         (with_value("1.5€".encode()[:-1]), "byte 0xe2 is not valid UTF-8")],
        ids=["valid", "nul", "cut-short"],
    )
    def test_a_load_reads_alike_at_any_block_size(
        self, tmp_path, monkeypatch, block, edit, message
    ):
        original = panel(2, 4)
        original.regions = ["r€", "😀"]  # characters of several bytes
        save_dataset(original, tmp_path)
        if edit:
            edit_line(tmp_path / "mobility.csv", 5, edit)
        if block:
            monkeypatch.setattr(datasets_module, "_TEXT_BLOCK", block)
        if message:
            with pytest.raises(DataError, match=rf"^mobility\.csv:5: {message}$"):
                load_dataset(tmp_path)
        else:
            assert_bit_identical(load_dataset(tmp_path), original)


POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
NONNEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def fuzz_panels(draw):
    """A small valid panel with arbitrary float64 values, and a seeded RNG."""
    n = draw(st.integers(1, 4))
    length = draw(st.integers(1, 5))
    extras = draw(st.integers(0, 2))
    start = draw(st.dates(max_value=date(9000, 1, 1)))

    def grid(shape, elements):
        return draw(hnp.arrays(np.float64, shape, elements=elements))

    core = grid((n, length, 4), NONNEGATIVE)  # cases and the S/I/R counts
    dataset = Dataset(
        regions=[f"r{k}" for k in range(n)],
        dates=[(start + timedelta(days=k)).isoformat() for k in range(length)],
        values=np.concatenate([core, grid((n, length, extras), FINITE)], axis=-1),
        flows=grid((n, n, length), POSITIVE),
        population=grid((n,), POSITIVE),
    )
    return dataset, draw(st.randoms(use_true_random=False))


def save_shuffled(dataset, directory, rnd) -> dict[str, list[str]]:
    """``save_dataset``, then shuffle mobility rows within each day; returns
    every file's lines (header included, so list index + 1 is the line)."""
    save_dataset(dataset, directory)
    mob = directory / "mobility.csv"
    lines = mob.read_text().splitlines()
    per_day = dataset.n_regions**2
    for start in range(1, len(lines), per_day):
        block = lines[start : start + per_day]
        rnd.shuffle(block)
        lines[start : start + per_day] = block
    mob.write_text("\n".join(lines) + "\n")
    return {
        name: (directory / name).read_text().splitlines()
        for name in ("population.csv", "observations.csv", "mobility.csv")
    }


MUTATIONS = ("drop", "duplicate", "negate", "nan", "swap_days", "rename")


def mutate(kind, dataset, files, rnd) -> tuple[str, int, str]:
    """Apply one defect to ``files`` in place.  Returns the file and line the
    loader must name and a pattern for the rest of its message."""
    n, length = dataset.n_regions, dataset.n_days
    name = rnd.choice(sorted(files))
    if kind == "drop" and (name == "population.csv" or n == 1):
        name = "mobility.csv"  # not a lone missing row, but a region or a day
    if kind in ("negate", "swap_days"):
        name = "mobility.csv"
    lines = files[name]
    k = rnd.randrange(1, len(lines))  # the 0-based index of a data row
    fields = lines[k].split(",")

    if kind == "drop":
        del lines[k]
        if name == "observations.csv":
            # reported where the day's rows end: the next day's first row
            line = min(((k - 1) // n + 1) * n + 1, length * n)
            return name, line, f"missing entry for region '{fields[1]}' on {fields[0]}"
        rows = n * n * length
        return name, len(lines), (
            rf"{rows - 1} flow rows, expected .* first missing: "
            rf"'{fields[1]}'->'{fields[2]}' on {fields[0]}"
        )
    if kind == "duplicate":
        lines.insert(k + 1, lines[k])
        return name, k + 2, "duplicate"
    if kind == "negate":
        fields[3] = "-" + fields[3]
        lines[k] = ",".join(fields)
        return name, k + 1, "flow must be >= 0"
    if kind == "nan":
        column = {"population.csv": 1, "mobility.csv": 3}.get(name)
        if column is None:
            column = rnd.randrange(2, len(fields))
        fields[column] = rnd.choice(["nan", "inf", "-inf"])
        lines[k] = ",".join(fields)
        return name, k + 1, ".* must be .*finite, got"
    if kind == "swap_days":
        a, b = sorted(rnd.sample(range(length), 2))
        per_day = n * n
        day_a = slice(1 + a * per_day, 1 + (a + 1) * per_day)
        day_b = slice(1 + b * per_day, 1 + (b + 1) * per_day)
        lines[day_a], lines[day_b] = lines[day_b], lines[day_a]
        # day b now sits in day a's place; the first later row goes back
        return name, 2 + (a + 1) * per_day, "dates must be non-decreasing"
    if kind == "rename":
        if name == "population.csv":
            lines[k] = "renamed," + fields[1]
            # observations list day 0's regions first, in population order
            return "observations.csv", k + 1, f"unknown region 'r{k - 1}'"
        column = 1 if name == "observations.csv" else rnd.choice([1, 2])
        fields[column] = "renamed"
        lines[k] = ",".join(fields)
        return name, k + 1, "unknown region 'renamed'"
    raise AssertionError(kind)


def assert_bit_identical(loaded, original):
    assert loaded.regions == original.regions
    assert loaded.dates == original.dates
    for field in ("values", "flows", "population"):
        got, want = getattr(loaded, field), getattr(original, field)
        assert got.shape == want.shape, field
        assert got.tobytes() == want.tobytes(), field


class TestCsvFuzz:
    @settings(max_examples=60, deadline=None)
    @given(fuzz_panels())
    def test_round_trip_is_bit_exact(self, case):
        original, rnd = case
        with tempfile.TemporaryDirectory() as directory:
            save_shuffled(original, Path(directory), rnd)
            assert_bit_identical(load_dataset(directory), original)

    @settings(max_examples=150, deadline=None)
    @given(fuzz_panels(), st.sampled_from(MUTATIONS))
    def test_each_mutation_names_file_and_line(self, case, kind):
        original, rnd = case
        if kind == "swap_days" and original.n_days == 1:
            kind = "duplicate"
        with tempfile.TemporaryDirectory() as directory:
            directory = Path(directory)
            files = save_shuffled(original, directory, rnd)
            name, line, message = mutate(kind, original, files, rnd)
            for file_name, lines in files.items():
                (directory / file_name).write_text("\n".join(lines) + "\n")
            with pytest.raises(DataError) as raised:
                load_dataset(directory)
        assert re.match(rf"{re.escape(name)}:{line}: {message}", str(raised.value)), (
            kind,
            str(raised.value),
        )


# names csv must quote, that carry blanks the parse strips, and non-ASCII
ODD_NAMES = ["Smith, Jones", 'The "Hub"', "two\nlines", "  padded ", "Zürich", "東京"]


def reference_texts(dataset) -> dict[str, bytes]:
    """The three files as a row-by-row ``csv.writer`` writes them."""
    files = {}
    for name, header, rows in (
        ("population.csv", ["region", "population"],
         ([r, p] for r, p in zip(dataset.regions, dataset.population))),
        ("observations.csv",
         ["date", "region", *CORE_CHANNELS,
          *(f"extra{k}" for k in range(dataset.values.shape[2] - 4))],
         ([d, r, *dataset.values[i, t]]
          for t, d in enumerate(dataset.dates) for i, r in enumerate(dataset.regions))),
        ("mobility.csv", ["date", "origin", "destination", "flow"],
         ([d, o, e, dataset.flows[i, j, t]]
          for t, d in enumerate(dataset.dates)
          for i, o in enumerate(dataset.regions) for j, e in enumerate(dataset.regions))),
    ):
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else format(float(v), ".17g") for v in row])
        files[name] = buffer.getvalue().encode()
    return files


class TestCsvWriter:
    @pytest.mark.parametrize(
        "names", [ODD_NAMES, ["Smith, Jones", "two\r\nlines", "", "r"]], ids=["odd", "empty"]
    )
    def test_bytes_match_a_row_by_row_csv_writer(self, tmp_path, names):
        original = panel(len(names), 3, extras=2)
        original.regions = list(names)
        original.dates = ["2021-03-01", " 2021-03-02", 'a,"b"']
        original.values[0, 0, :] = [-0.0, np.nan, np.inf, 1e300, -1e-300, -0.0]
        original.flows[1, 2, 0] = -0.0
        save_dataset(original, tmp_path)
        for name, expected in reference_texts(original).items():
            assert (tmp_path / name).read_bytes() == expected, name

    def test_arrays_that_disagree_with_the_names_are_refused(self, tmp_path):
        original = panel(3, 4)
        original.regions = original.regions[:2]
        with pytest.raises(ValueError):
            save_dataset(original, tmp_path)
        assert not any(tmp_path.iterdir())


def assert_same_panel(got, want):
    """Bitwise equal, with equal dtypes and C-ordered arrays."""
    assert got.regions == want.regions and got.dates == want.dates
    assert all(type(text) is str for text in got.regions + got.dates)
    for field in ("values", "flows", "population"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype == np.float64, field
        assert a.flags.c_contiguous and a.flags.writeable, field
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), field


def parsed(directory: Path):
    """The panel the CSVs under ``directory`` parse to, copy or not."""
    with tempfile.TemporaryDirectory() as bare:
        for name in ("population.csv", "observations.csv", "mobility.csv"):
            (Path(bare) / name).write_bytes((directory / name).read_bytes())
        return load_dataset(bare)


COPY_MAGIC = b"EPPANEL\x00"


def frame(manifest, body: bytes) -> bytes:
    """A panel copy's bytes: the magic, the manifest's length, the manifest
    (a dict as sorted-key JSON, or raw bytes), then the body."""
    if isinstance(manifest, dict):
        manifest = json.dumps(manifest, sort_keys=True).encode()
    return COPY_MAGIC + len(manifest).to_bytes(4, "little") + manifest + body


def read_copy(directory: Path):
    """The manifest of ``panel.bin`` and its body's three arrays, read by
    the format's layout."""
    raw = (directory / "panel.bin").read_bytes()
    assert raw[:8] == COPY_MAGIC
    end = 12 + int.from_bytes(raw[8:12], "little")
    manifest = json.loads(raw[12:end])
    n, length, channels = manifest["shape"]
    body = np.frombuffer(raw[end:], "<f8")
    assert body.size == n * length * channels + n * n * length + n
    values, flows, population = np.split(body, np.cumsum([n * length * channels, n * n * length]))
    return manifest, [
        values.reshape(n, length, channels).copy(), flows.reshape(n, n, length).copy(),
        population.copy(),
    ]


def rewrite_copy(directory: Path, arrays=None, **keys) -> None:
    """Write ``panel.bin`` again with manifest ``keys`` replaced (None drops
    one) and, when given, ``arrays`` as its body (each in its own dtype).
    The manifest's crc32 is that of the new manifest and body unless
    ``keys`` sets one."""
    manifest, old = read_copy(directory)
    body = b"".join(np.asarray(array).tobytes() for array in (old if arrays is None else arrays))
    del manifest["payload_crc32"]
    manifest.update(keys)
    manifest = {key: value for key, value in manifest.items() if value is not None}
    manifest.setdefault(
        "payload_crc32", zlib.crc32(json.dumps(manifest, sort_keys=True).encode() + body)
    )
    (directory / "panel.bin").write_bytes(frame(manifest, body))


UNPICKLED = []


def unpickled() -> None:
    UNPICKLED.append(True)


class Tripwire:
    """Records being unpickled."""

    def __reduce__(self):
        return unpickled, ()


def load_noting_parses(directory: Path):
    """``load_dataset(directory)``, and whether it parsed a CSV."""
    with mock.patch.object(datasets_module, "_parse", wraps=datasets_module._parse) as parse:
        return load_dataset(directory), parse.called


def saved_with_copy(dataset, directory: Path) -> None:
    """``save_dataset``, then the one load that writes the copy."""
    save_dataset(dataset, directory)
    load_dataset(directory)
    assert (directory / "panel.bin").is_file()


class TestBinaryCopy:
    """``panel.bin``: written by ``load_dataset`` as the parse of the CSVs,
    read by it only while the CSVs' digests match."""

    def test_frame_crc_leaves_out_the_key_it_is_stored_under(self):
        manifest, body = {"regions": ["r0", "r1"], "shape": [2]}, [np.arange(2.0)]
        crc = frame_crc(manifest, body)
        stored = {**manifest, "payload_crc32": crc}
        assert frame_crc(stored, body) == crc
        assert frame_crc({**manifest, "crc32": crc}, body) != crc
        assert stored == {**manifest, "payload_crc32": crc}  # read, not changed
        assert crc == zlib.crc32(json.dumps(manifest, sort_keys=True).encode() + body[0].tobytes())

    @settings(max_examples=25, deadline=None)
    @given(fuzz_panels(), st.integers(0, len(ODD_NAMES)))
    def test_copy_loads_bitwise_equal_to_the_parse(self, case, odd):
        original, rnd = case
        # some names odd, blanks the parse strips among them
        original.regions = [
            ODD_NAMES[(k + odd) % len(ODD_NAMES)] if k < odd else name
            for k, name in enumerate(original.regions)
        ]
        original.values[rnd.randrange(original.n_regions), 0, 0] = -0.0
        original.flows[0, 0, rnd.randrange(original.n_days)] = -0.0
        with tempfile.TemporaryDirectory() as directory:
            directory = Path(directory)
            save_dataset(original, directory)
            from_csv = load_dataset(directory)
            with mock.patch.object(datasets_module, "_parse", side_effect=AssertionError("parsed")):
                from_copy = load_dataset(directory)
        assert_same_panel(from_copy, from_csv)
        assert [name.strip() for name in original.regions] == from_copy.regions
        assert np.signbit(from_copy.flows).any()

    def test_a_matching_copy_is_read_without_parsing(self, tmp_path):
        original = panel(len(ODD_NAMES), 5, extras=1)
        original.regions = list(ODD_NAMES)
        saved_with_copy(original, tmp_path)
        expected = parsed(tmp_path)
        assert "padded" in expected.regions  # as the parse strips it
        with mock.patch.object(datasets_module, "_parse", side_effect=AssertionError("parsed")):
            assert_same_panel(load_dataset(tmp_path), expected)

    @pytest.mark.parametrize(
        "name,line,value,field,where",
        [
            ("population.csv", 2, b"4321", "population", (0,)),
            ("observations.csv", 2, b"7", "values", (0, 0, 3)),
            ("mobility.csv", 2, b"5", "flows", (0, 0, 0)),
        ],
    )
    def test_an_edited_csv_is_parsed_once_again(
        self, tmp_path, name, line, value, field, where
    ):
        saved_with_copy(panel(2, 3), tmp_path)
        edit_line(tmp_path / name, line, with_value(value))
        loaded, parsed_csv = load_noting_parses(tmp_path)
        assert parsed_csv
        assert getattr(loaded, field)[where] == float(value)
        assert_same_panel(loaded, parsed(tmp_path))
        again, parsed_csv = load_noting_parses(tmp_path)
        assert not parsed_csv
        assert_same_panel(again, loaded)

    def test_an_edit_that_breaks_a_rule_still_names_file_and_line(self, tmp_path):
        saved_with_copy(panel(2, 3), tmp_path)
        old = (tmp_path / "panel.bin").read_bytes()
        edit_line(tmp_path / "mobility.csv", 4, with_value(b"-1"))
        with pytest.raises(DataError, match=r"^mobility\.csv:4: flow must be >= 0"):
            load_dataset(tmp_path)
        assert (tmp_path / "panel.bin").read_bytes() == old

    @pytest.mark.parametrize(
        "damage",
        [
            "truncated", "empty", "not a frame", "an .npy", "directory", "an old panel.npz",
            "bad magic", "manifest past the end", "manifest not JSON", "manifest not an object",
            "manifest nested too deep", "a bit flipped in a region name",
            "wrong digest", "digests of other files", "missing key", "extra key",
            "crc32 as text", "another format", "no format (an older copy)",
            "a shape of 10**13 values", "values claiming a huge shape",
            "float32 values", "big-endian flows", "values in another order",
            "a name as a number", "dates as floats", "a body a value long", "crc32 mismatch",
            "crc under the old key",
            "a day short", "a region short", "flows a day short", "a 2-d shape", "3 channels",
            "negative case", "infinite extra", "nan flow", "zero population",
            "repeated name", "unstripped name", "a calendar gap", "a bad date",
        ],
    )
    def test_a_damaged_or_hand_made_copy_is_ignored(self, tmp_path, damage):
        # every body rewritten here carries its own correct crc32 unless the
        # case is about the crc32, so each array rule is checked on its own
        original = panel(2, 3, extras=1)
        saved_with_copy(original, tmp_path)
        copy = tmp_path / "panel.bin"
        good = copy.read_bytes()
        manifest, (values, flows, population) = read_copy(tmp_path)
        body = good[-8 * (values.size + flows.size + population.size) :]
        if damage == "truncated":
            copy.write_bytes(good[: len(good) // 2])
        elif damage == "empty":
            copy.write_bytes(b"")
        elif damage == "not a frame":
            copy.write_bytes(b"region,population\r\n")
        elif damage == "an .npy":
            with copy.open("wb") as handle:
                np.save(handle, values)
        elif damage == "directory":
            copy.unlink()
            copy.mkdir()
        elif damage == "an old panel.npz":
            with copy.open("wb") as handle:
                np.savez(handle, values=values, flows=flows, population=population)
        elif damage == "bad magic":
            copy.write_bytes(b"EPCAST\x00\x01" + good[8:])
        elif damage == "manifest past the end":
            copy.write_bytes(good[:8] + len(good).to_bytes(4, "little") + good[12:])
        elif damage == "manifest not JSON":
            copy.write_bytes(frame(b"{'format': 'epicast-panel-2'}", body))
        elif damage == "manifest not an object":
            copy.write_bytes(frame(json.dumps(list(manifest.items())).encode(), body))
        elif damage == "manifest nested too deep":
            copy.write_bytes(frame(b"[" * 100_000 + b"]" * 100_000, body))
        elif damage == "a bit flipped in a region name":
            # "r0" -> "r2": a manifest that still parses, with every type,
            # digest and rule right; only the crc32 can tell
            assert manifest["regions"] == ["r0", "r1"]
            at = good.index(b'"r0"') + 2
            copy.write_bytes(good[:at] + bytes([good[at] ^ 2]) + good[at + 1 :])
        elif damage == "wrong digest":
            digests = manifest["sha256"]
            digests[1] = digests[1][::-1]
            rewrite_copy(tmp_path, sha256=digests)
        elif damage == "digests of other files":
            saved_with_copy(panel(2, 3, extras=1, seed=601), tmp_path / "other")
            rewrite_copy(tmp_path, sha256=read_copy(tmp_path / "other")[0]["sha256"])
        elif damage == "missing key":
            rewrite_copy(tmp_path, regions=None)
        elif damage == "extra key":
            rewrite_copy(tmp_path, notes=[0.0])
        elif damage == "crc32 as text":
            rewrite_copy(tmp_path, payload_crc32=str(manifest["payload_crc32"]))
        elif damage == "another format":
            rewrite_copy(tmp_path, format="epicast-panel-1")
        elif damage == "no format (an older copy)":
            rewrite_copy(tmp_path, format=None)
        elif damage == "a shape of 10**13 values":
            # nothing may be allocated from a shape before it is checked
            rewrite_copy(tmp_path, shape=[10**13])
        elif damage == "values claiming a huge shape":
            rewrite_copy(tmp_path, shape=[2, 3, 10**13])
        elif damage == "float32 values":
            rewrite_copy(tmp_path, [values.astype(np.float32), flows, population])
        elif damage == "big-endian flows":
            rewrite_copy(tmp_path, [values, flows.astype(">f8"), population])
        elif damage == "values in another order":
            rewrite_copy(tmp_path, [values.transpose(1, 0, 2), flows, population], shape=[3, 2, 5])
        elif damage == "a name as a number":
            rewrite_copy(tmp_path, regions=[0, "r1"])
        elif damage == "dates as floats":
            rewrite_copy(tmp_path, dates=[0.0, 1.0, 2.0])
        elif damage == "a body a value long":
            rewrite_copy(tmp_path, [values, flows, population, [1.0]])
        elif damage == "crc32 mismatch":
            rewrite_copy(tmp_path, payload_crc32=manifest["payload_crc32"] ^ 1)
        elif damage == "crc under the old key":
            # a copy as written before the key's rename, under the same format tag
            older = {key: value for key, value in manifest.items() if key != "payload_crc32"}
            copy.write_bytes(frame({**older, "crc32": manifest["payload_crc32"]}, body))
        elif damage == "a day short":
            rewrite_copy(tmp_path, [values[:, :2], flows, population], shape=[2, 2, 5])
        elif damage == "a region short":
            rewrite_copy(tmp_path, [values, flows, population[:1]])
        elif damage == "flows a day short":
            rewrite_copy(tmp_path, [values, flows[:, :, :2], population])
        elif damage == "a 2-d shape":
            rewrite_copy(tmp_path, shape=[2, 3])
        elif damage == "3 channels":
            rewrite_copy(tmp_path, [values[..., :3], flows, population], shape=[2, 3, 3])
        elif damage == "negative case":
            values[1, 2, 0] = -1.0
            rewrite_copy(tmp_path, [values, flows, population])
        elif damage == "infinite extra":
            values[0, 1, 4] = np.inf
            rewrite_copy(tmp_path, [values, flows, population])
        elif damage == "nan flow":
            flows[0, 1, 1] = np.nan
            rewrite_copy(tmp_path, [values, flows, population])
        elif damage == "zero population":
            population[0] = 0.0
            rewrite_copy(tmp_path, [values, flows, population])
        elif damage == "repeated name":
            rewrite_copy(tmp_path, regions=["r0", "r0"])
        elif damage == "unstripped name":
            rewrite_copy(tmp_path, regions=["r0", " r1"])
        elif damage == "a calendar gap":
            rewrite_copy(tmp_path, dates=["2021-03-01", "2021-03-02", "2021-03-04"])
        elif damage == "a bad date":
            rewrite_copy(tmp_path, dates=["2021-02-29", "2021-03-01", "2021-03-02"])
        else:
            raise AssertionError(damage)
        loaded, parsed_csv = load_noting_parses(tmp_path)
        assert parsed_csv, "the damaged copy was read"
        assert_same_panel(loaded, original)
        # the parse wrote the copy again, except over a directory
        loaded, parsed_csv = load_noting_parses(tmp_path)
        assert parsed_csv == (damage == "directory")
        assert_same_panel(loaded, original)

    def test_an_old_npz_copy_is_ignored_without_unpickling(self, tmp_path):
        # a copy of the previous format holding pickled objects, under its
        # old name and under the new one: neither is read or unpickled
        original = panel(2, 3)
        save_dataset(original, tmp_path)
        tripwires = np.array([Tripwire(), Tripwire()], dtype=object)
        for name in ("panel.npz", "panel.bin"):
            with (tmp_path / name).open("wb") as handle:
                np.savez(handle, regions=tripwires)
        UNPICKLED.clear()
        loaded, parsed_csv = load_noting_parses(tmp_path)
        assert_same_panel(loaded, original)
        assert parsed_csv and not UNPICKLED
        loaded, parsed_csv = load_noting_parses(tmp_path)
        assert_same_panel(loaded, original)
        assert not parsed_csv

    def test_single_byte_damage_falls_back_or_reads_the_same(self, tmp_path):
        original = panel(1, 1)
        saved_with_copy(original, tmp_path)
        copy = tmp_path / "panel.bin"
        good = copy.read_bytes()
        # every third byte, headers and data alike, all its bits or its
        # lowest (which keeps a manifest byte ASCII, so the JSON may parse)
        for at, flip in product(range(0, len(good), 3), (0xFF, 0x01)):
            damaged = bytearray(good)
            damaged[at] ^= flip
            copy.write_bytes(bytes(damaged))
            assert_same_panel(load_dataset(tmp_path), original)
            loaded, parsed_csv = load_noting_parses(tmp_path)
            assert not parsed_csv
            assert_same_panel(loaded, original)

    @pytest.mark.parametrize("name", ["population.csv", "observations.csv", "mobility.csv"])
    def test_a_missing_csv_is_still_a_missing_input_file(self, tmp_path, name):
        saved_with_copy(panel(2, 3), tmp_path)
        (tmp_path / name).unlink()
        with pytest.raises(DataError, match=rf"missing input file: .*{re.escape(name)}$"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("block", [None, 1000], ids=["1 MiB", "1000 bytes"])
    def test_digests_read_in_blocks_equal_the_whole_file_digests(
        self, tmp_path, monkeypatch, block
    ):
        # files of several blocks, one an exact multiple of a block, and empty
        if block:
            monkeypatch.setattr(datasets_module, "_BLOCK", block)
        size = datasets_module._BLOCK
        rng = rng_for(612)
        paths = []
        for name, length in (("a", 2 * size + 3), ("b", 3 * size), ("c", 0), ("d", 17)):
            paths.append(tmp_path / name)
            paths[-1].write_bytes(rng.bytes(length))
        assert datasets_module._digests(paths) == [
            hashlib.sha256(path.read_bytes()).hexdigest() for path in paths
        ]

    def test_a_panel_the_parse_refuses_gets_no_copy(self, tmp_path):
        saved_with_copy(panel(2, 3), tmp_path)
        old = (tmp_path / "panel.bin").read_bytes()
        bad = panel(2, 3, seed=601)
        bad.values[1, 1, 2] = -5.0
        save_dataset(bad, tmp_path)  # raises nothing, as a save never has
        for _ in range(2):
            with pytest.raises(DataError, match=r"^observations\.csv:5: column 'infected'"):
                load_dataset(tmp_path)
        assert (tmp_path / "panel.bin").read_bytes() == old

    def test_a_save_that_fails_keeps_the_old_copy(self, tmp_path):
        saved_with_copy(panel(2, 3), tmp_path)
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        flows = panel(2, 3, seed=601)
        flows.flows = flows.flows[:, :, :2]  # one day short: refused while writing
        with pytest.raises(ValueError):
            save_dataset(flows, tmp_path)
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_a_save_leaves_the_old_copy_for_the_next_load_to_replace(self, tmp_path):
        saved_with_copy(panel(2, 3, seed=601), tmp_path)
        old = (tmp_path / "panel.bin").read_bytes()
        original = panel(2, 3, extras=1)
        save_dataset(original, tmp_path)
        assert (tmp_path / "panel.bin").read_bytes() == old
        assert {name: (tmp_path / name).read_bytes() for name in reference_texts(original)} \
            == reference_texts(original)
        for parses in (True, False):
            loaded, parsed_csv = load_noting_parses(tmp_path)
            assert parsed_csv == parses
            assert_same_panel(loaded, original)


def hand_written(directory: Path, dataset) -> None:
    for name, text in reference_texts(dataset).items():
        (directory / name).write_bytes(text)


class TestCopyWrite:
    """``load_dataset`` writes the copy of a panel it has to parse."""

    def test_a_hand_written_panel_gets_its_copy(self, tmp_path):
        original = panel(len(ODD_NAMES), 4, extras=1)
        original.regions = list(ODD_NAMES)
        hand_written(tmp_path, original)
        expected = parsed(tmp_path)
        loaded, parsed_csv = load_noting_parses(tmp_path)
        assert parsed_csv
        assert_same_panel(loaded, expected)
        assert (tmp_path / "panel.bin").is_file()
        with mock.patch.object(datasets_module, "_parse", side_effect=AssertionError("parsed")):
            assert_same_panel(load_dataset(tmp_path), expected)

    def test_a_matching_copy_is_read_and_kept(self, tmp_path):
        saved_with_copy(panel(2, 3), tmp_path)
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        expected = parsed(tmp_path)
        with mock.patch.object(datasets_module, "atomic_write",
                               side_effect=AssertionError("written")), \
                mock.patch.object(datasets_module, "_parse", side_effect=AssertionError("parsed")):
            assert_same_panel(load_dataset(tmp_path), expected)
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_a_stale_copy_is_written_again(self, tmp_path):
        saved_with_copy(panel(2, 3), tmp_path)
        edit_line(tmp_path / "mobility.csv", 2, with_value(b"5"))
        loaded, parsed_csv = load_noting_parses(tmp_path)
        assert parsed_csv and loaded.flows[0, 0, 0] == 5.0
        loaded, parsed_csv = load_noting_parses(tmp_path)
        assert not parsed_csv
        assert_same_panel(loaded, parsed(tmp_path))

    def test_a_csv_that_changes_during_the_parse_gets_no_copy(self, tmp_path, monkeypatch):
        original = panel(2, 3)
        hand_written(tmp_path, original)
        parse = datasets_module._parse

        def parse_then_edit(*paths):
            panel_parsed = parse(*paths)
            edit_line(tmp_path / "observations.csv", 2, with_value(b"7"))
            return panel_parsed

        monkeypatch.setattr(datasets_module, "_parse", parse_then_edit)
        assert_same_panel(load_dataset(tmp_path), original)
        assert not (tmp_path / "panel.bin").exists()

    @pytest.mark.parametrize("obstacle", ["a directory", "a full disk"])
    def test_a_copy_that_cannot_be_written_is_left_out(self, tmp_path, obstacle):
        original = panel(2, 3)
        hand_written(tmp_path, original)
        if obstacle == "a directory":
            (tmp_path / "panel.bin").mkdir()
            loaded = load_dataset(tmp_path)
        else:
            full = OSError(28, "No space left on device")
            with mock.patch.object(datasets_module, "_frame_parts", side_effect=full):
                loaded = load_dataset(tmp_path)
        assert_same_panel(loaded, original)
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            ["mobility.csv", "observations.csv", "population.csv"]
            + (["panel.bin"] if obstacle == "a directory" else [])
        )

    def test_a_directory_that_refuses_the_copy_is_hashed_once(self, tmp_path, monkeypatch):
        original = panel(2, 3)
        hand_written(tmp_path, original)
        open_path, digests = Path.open, datasets_module._digests
        hashed = []

        def refuse_temporaries(path, *args, **kwargs):
            if path.name.endswith(".tmp"):
                raise OSError(errno.EROFS, "Read-only file system", str(path))
            return open_path(path, *args, **kwargs)

        def counted(paths):
            hashed.append(len(paths))
            return digests(paths)

        monkeypatch.setattr(Path, "open", refuse_temporaries)
        monkeypatch.setattr(datasets_module, "_digests", counted)
        monkeypatch.setattr(datasets_module, "_frame_parts",
                            mock.Mock(side_effect=AssertionError("encoded")))
        assert_same_panel(load_dataset(tmp_path), original)
        assert hashed == [3]
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "mobility.csv", "observations.csv", "population.csv"
        ]

    def test_a_refused_panel_still_raises_and_gets_no_copy(self, tmp_path):
        hand_written(tmp_path, panel(2, 3))
        edit_line(tmp_path / "mobility.csv", 4, with_value(b"-1"))
        with pytest.raises(DataError, match=r"^mobility\.csv:4: flow must be >= 0"):
            load_dataset(tmp_path)
        assert not (tmp_path / "panel.bin").exists()


# bytes a hand edit or a damaged file often brings: CSV syntax, line ends, a
# sign, a blank, number parts, NUL and a byte that is never UTF-8
DAMAGE_BYTES = b'",\r\n- .0e\x00\xff'
DAMAGE_KINDS = ("flip", "set", "delete", "insert", "truncate", "duplicate line")
# what a refusal of a mutated panel must start with: the file it names, and
# its line where there is one
NAMES_A_CSV = re.compile(r"(population|observations|mobility)\.csv(:(\d+))?: \S")


def damage(data: bytes, rnd) -> tuple[bytes, str]:
    """``data`` with one seeded mutation, and the mutation in words."""
    kind = rnd.choice(DAMAGE_KINDS)
    at = rnd.randrange(len(data))

    def some_byte() -> int:
        return rnd.choice([rnd.randrange(256), rnd.choice(DAMAGE_BYTES)])

    if kind == "flip":
        bit = rnd.randrange(8)
        flipped = bytes([data[at] ^ 1 << bit])
        return data[:at] + flipped + data[at + 1 :], f"flip bit {bit} of byte {at}"
    if kind == "set":
        value = bytes([some_byte()])
        return data[:at] + value + data[at + 1 :], f"set byte {at} to {value!r}"
    if kind == "delete":
        count = rnd.randint(1, 16)
        return data[:at] + data[at + count :], f"delete bytes {at}..{at + count - 1}"
    if kind == "insert":
        chunk = bytes(some_byte() for _ in range(rnd.randint(1, 4)))
        return data[:at] + chunk + data[at:], f"insert {chunk!r} before byte {at}"
    if kind == "truncate":
        return data[:at], f"truncate to {at} bytes"
    lines = data.splitlines(keepends=True)
    k = rnd.randrange(len(lines))
    return b"".join(lines[: k + 1] + lines[k:]), f"duplicate line {k + 1}"


class TestMutationReferee:
    """Seeded damage to each file of a small panel: a CSV loads or is
    refused by a ``DataError`` naming a panel file, and a damaged
    ``panel.bin`` never changes what loads.  A failure names its seed and
    mutation; ``damage(data, random.Random(seed))`` replays it."""

    MUTATIONS = 100  # per file

    @pytest.fixture(scope="class")
    def pristine(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("referee")
        save_dataset(generate_synthetic(SyntheticScenario(seed=31, n_regions=3, length=300)),
                     directory)
        original = load_dataset(directory)
        files = {path.name: path.read_bytes() for path in directory.iterdir()}
        assert sorted(files) == sorted(datasets_module._CSV_NAMES + ("panel.bin",))
        return directory, files, original

    @pytest.mark.parametrize(
        "name", ["population.csv", "observations.csv", "mobility.csv", "panel.bin"]
    )
    def test_damage_loads_or_names_a_file(self, pristine, name):
        directory, files, original = pristine
        for k in range(self.MUTATIONS):
            seed = f"31/{name}/{k}"
            data, mutation = damage(files[name], random.Random(seed))
            replay = f"seed {seed!r}: {mutation}"
            for other, text in files.items():
                (directory / other).write_bytes(data if other == name else text)
            try:
                loaded = load_dataset(directory)
            except DataError as err:
                found = NAMES_A_CSV.match(str(err))
                assert found and name != "panel.bin", f"{replay}: {err}"
                named = data if found[1] + ".csv" == name else files[found[1] + ".csv"]
                assert found[3] is None or 1 <= int(found[3]) <= len(named.splitlines()) + 1, (
                    f"{replay}: {err}"
                )
                continue
            except Exception as err:
                pytest.fail(f"{replay}: {type(err).__name__}: {err}")
            if name == "panel.bin":
                assert_same_panel(loaded, original)
            else:  # the copy the load wrote holds the same panel
                assert_same_panel(load_dataset(directory), loaded)


class TestChronologicalSplit:
    @pytest.mark.parametrize(
        "length,expected",
        [(539, (404, 67, 68)), (400, (300, 50, 50)), (8, (6, 1, 1)), (100, (75, 12, 13))],
    )
    def test_six_one_one_sizes(self, length, expected):
        data = panel(1, length)
        train, val, test = chronological_split(data)
        assert (train.n_days, val.n_days, test.n_days) == expected
        assert train.n_days + val.n_days + test.n_days == length

    def test_segments_are_contiguous_in_order(self):
        data = panel(2, 40)
        train, val, test = chronological_split(data)
        assert train.dates == data.dates[:30]
        assert val.dates == data.dates[30:35]
        assert test.dates == data.dates[35:]
        np.testing.assert_array_equal(val.values, data.values[:, 30:35])
        np.testing.assert_array_equal(test.flows, data.flows[:, :, 35:])

    def test_too_short_rejected(self):
        with pytest.raises(DataError, match="at least 8 days"):
            chronological_split(panel(1, 7))

    def test_segments_are_views_and_allocate_no_copy(self):
        data = panel(64, 60)
        chronological_split(data)  # a first call imports and caches what it needs
        tracemalloc.start()
        try:
            segments = chronological_split(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a copy of the flows alone would be 64 * 64 * 60 * 8 bytes
        assert peak < 8192
        for segment in segments:
            assert np.shares_memory(segment.values, data.values)
            assert np.shares_memory(segment.flows, data.flows)
            assert not segment.values.flags.writeable


class TestWindowize:
    def test_count_and_shapes(self):
        data = panel(3, 25, extras=1)
        windows = windowize(data, t_in=6, t_out=4)
        count = 25 - (6 + 4) + 1
        assert len(windows) == count
        assert windows.observations.shape == (count, 3, 6, 5)
        assert windows.mobility.shape == (count, 3, 3, 6)
        assert windows.targets.shape == (count, 3, 4)
        assert windows.susceptible0.shape == (count, 3)

    def test_alignment_with_source_panel(self):
        data = panel(2, 18, extras=1)
        t_in, t_out = 5, 3
        windows = windowize(data, t_in, t_out)
        for w in range(len(windows)):
            np.testing.assert_array_equal(
                windows.observations[w], data.values[:, w : w + t_in]
            )
            np.testing.assert_array_equal(
                windows.mobility[w], data.flows[:, :, w : w + t_in]
            )
            np.testing.assert_array_equal(
                windows.targets[w], data.values[:, w + t_in : w + t_in + t_out, 0]
            )
            # the start state is the last observed day of the window
            last = data.values[:, w + t_in - 1]
            for k, start in enumerate(
                (windows.susceptible0, windows.infected0, windows.recovered0), 1
            ):
                np.testing.assert_array_equal(start[w], last[:, k])

    def test_observations_and_targets_are_read_only_views(self):
        data = panel(3, 12, extras=2)
        windows = windowize(data, 4, 2)
        before = data.values.copy()
        for name in ("observations", "targets"):
            array = getattr(windows, name)
            assert np.shares_memory(array, data.values), name
            assert not array.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                array[...] = -1.0
        # the start states are small copies, the caller's to write into
        for name in ("susceptible0", "infected0", "recovered0"):
            array = getattr(windows, name)
            assert array.flags.c_contiguous and array.flags.writeable, name
            assert not np.shares_memory(array, data.values), name
            array[...] = -1.0
        np.testing.assert_array_equal(data.values, before)

    def test_windowize_allocates_no_buffer_of_the_windows_size(self):
        data = panel(64, 60)
        t_in, t_out = 14, 14
        windowize(data, t_in, t_out)  # a first call imports and caches what it needs
        tracemalloc.start()
        try:
            windows = windowize(data, t_in, t_out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        count = len(windows)
        # the three (W, N) start states and small change; a copy of the
        # observations would be (W, N, t_in, C), 14 times the segment's days
        assert peak < 3 * count * 64 * 8 + 8192
        assert windows.observations.nbytes > 10 * peak

    def test_channel_scaler_reduces_a_c_ordered_copy(self):
        windows = windowize(panel(5, 40, extras=1), 6, 3)
        copied = np.ascontiguousarray(windows.observations)
        mean, scale = channel_scaler(windows)
        assert mean.tobytes() == copied.mean(axis=(0, 1, 2)).tobytes()
        assert scale.tobytes() == copied.std(axis=(0, 1, 2)).tobytes()

    def test_no_target_days_gives_every_observed_window(self):
        # the forecast's cut: each window ending on a day with t_in days before it
        data = panel(2, 9)
        windows = windowize(data, 9, 0)
        assert len(windows) == 1
        assert windows.targets.shape == (1, 2, 0)
        np.testing.assert_array_equal(windows.observations[0], data.values)
        np.testing.assert_array_equal(windows.infected0[0], data.values[:, -1, 2])
        assert len(windowize(data, 4, 0)) == 6

    def test_batch_selects_requested_windows(self):
        data = panel(2, 20)
        windows = windowize(data, 4, 2)
        batch = windows.batch([3, 7])
        np.testing.assert_array_equal(batch.observations[0], windows.observations[3])
        np.testing.assert_array_equal(batch.targets[1], windows.targets[7])
        assert len(batch) == 2

    @pytest.mark.parametrize("indices", [slice(2, 6), np.arange(2, 6)], ids=["slice", "array"])
    def test_batch_is_a_window_set_sharing_the_set_wide_fields(self, indices):
        data = panel(3, 20)
        windows = windowize(data, 5, 3)
        batch = windows.batch(indices)
        assert type(batch) is WindowSet and len(batch) == 4
        assert batch.regions is windows.regions and batch.t_out == windows.t_out == 3
        assert batch.population is windows.population
        views = isinstance(indices, slice)
        for name in ("observations", "mobility", "susceptible0", "infected0",
                     "recovered0", "targets"):
            array = getattr(batch, name)
            assert np.shares_memory(array, getattr(windows, name)) == views, name
            assert array.tobytes() == getattr(windows, name)[2:6].tobytes(), name
        # a batch of a batch selects from it alike
        again = batch.batch(np.array([3, 0]))
        assert again.observations.tobytes() == windows.observations[[5, 2]].tobytes()
        assert again.regions is windows.regions

    def test_mobility_is_a_read_only_view_of_the_flows(self):
        data = panel(2, 18)
        windows = windowize(data, 5, 3)
        assert np.shares_memory(windows.mobility, data.flows)
        with pytest.raises(ValueError, match="read-only"):
            windows.mobility[0, 0, 1, 0] = -1.0
        with pytest.raises(ValueError, match="read-only"):
            windows.mobility += 1.0

    # 18 days give 11 windows; 8 days are exactly one 5+3-day window
    @pytest.mark.parametrize("days", [18, 8])
    def test_batch_mobility_equals_per_window_copies(self, days):
        data = panel(3, days)
        t_in, t_out = 5, 3
        windows = windowize(data, t_in, t_out)
        last = len(windows) - 1
        indices = [last, 0, last // 2, last]
        mobility = windows.batch(indices).mobility
        assert mobility.flags.c_contiguous and mobility.flags.writeable
        copies = np.empty((len(indices), 3, 3, t_in))
        for k, w in enumerate(indices):
            copies[k] = data.flows[:, :, w : w + t_in]
        assert mobility.tobytes() == copies.tobytes()
        # the gathered batch is the caller's to write into
        mobility[...] = 0.0
        np.testing.assert_array_equal(windows.mobility[last], copies[0])

    def test_batch_of_a_slice_is_views(self):
        data = panel(3, 20)
        windows = windowize(data, 5, 3)
        batch = windows.batch(slice(2, 6))
        gathered = windows.batch(np.arange(2, 6))
        for name in ("observations", "mobility", "susceptible0", "infected0",
                     "recovered0", "targets"):
            view, copy = getattr(batch, name), getattr(gathered, name)
            assert np.shares_memory(view, getattr(windows, name)), name
            assert view.tobytes() == copy.tobytes(), name
            # a gathered batch is fresh, writable and C-ordered
            assert copy.flags.c_contiguous and copy.flags.writeable, name
        for name, source in (("mobility", data.flows), ("observations", data.values),
                             ("targets", data.values)):
            view = getattr(batch, name)
            assert not view.flags.writeable, name
            assert np.shares_memory(view, source), name
            with pytest.raises(ValueError, match="read-only"):
                view[0, 0, 0] = -1.0

    @pytest.mark.parametrize(
        "indices",
        [[0.7, 2.9], np.array([0.0, 2.0]), [True, False], np.ones(4, dtype=bool),
         [], 3, [[0, 1]], "0"],
        ids=["float-list", "float-array", "bool-list", "bool-mask", "empty-list",
             "scalar", "2-d", "string"],
    )
    def test_batch_refuses_what_is_not_an_integer_index_array(self, indices):
        windows = windowize(panel(2, 20), 4, 2)
        with pytest.raises(TypeError, match="slice or a 1-D integer index array"):
            windows.batch(indices)

    def test_too_short_segment_rejected(self):
        with pytest.raises(DataError, match="too short"):
            windowize(panel(1, 9), t_in=6, t_out=4)


class TestSyntheticGenerator:
    def test_deterministic_given_scenario(self):
        scenario = small_scenario()
        a = generate_synthetic(scenario)
        b = generate_synthetic(scenario)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.flows, b.flows)
        assert a.dates == b.dates

    def test_seed_changes_world(self):
        a = generate_synthetic(small_scenario(seed=1))
        b = generate_synthetic(small_scenario(seed=2))
        assert not np.array_equal(a.values[..., 0], b.values[..., 0])
        assert not np.array_equal(a.population, b.population)

    def test_zero_noise_reports_exact_mechanistic_cases(self):
        scenario = small_scenario(noise=0.0)
        data = generate_synthetic(scenario)
        beta, gamma = true_parameter_series(scenario)
        flows = mobility_schedule(scenario)
        # replay the simulation with the public reference loop
        infected0 = scenario.initial_infected_fraction * data.population
        replay = metapop.trajectory(
            data.population - infected0, infected0, np.zeros(scenario.n_regions),
            beta, gamma, flows, data.population,
        )
        np.testing.assert_array_equal(data.values, np.moveaxis(replay, 0, -1))

    def test_noise_only_touches_observed_cases(self):
        quiet = generate_synthetic(small_scenario(noise=0.0))
        noisy = generate_synthetic(small_scenario(noise=0.3))
        np.testing.assert_array_equal(quiet.values[..., 1:], noisy.values[..., 1:])
        np.testing.assert_array_equal(quiet.flows, noisy.flows)
        assert not np.array_equal(quiet.values[..., 0], noisy.values[..., 0])

    def test_noise_is_mean_one_multiplicative(self):
        # the log-normal observation factor has expectation one, so large
        # samples preserve the underlying case level
        quiet = generate_synthetic(small_scenario(length=200, noise=0.0))
        noisy = generate_synthetic(small_scenario(length=200, noise=0.1))
        quiet_cases, noisy_cases = quiet.values[..., 0], noisy.values[..., 0]
        alive = quiet_cases > 1.0
        ratio = noisy_cases[alive] / quiet_cases[alive]
        assert abs(ratio.mean() - 1.0) < 0.02
        assert (noisy_cases >= 0).all()

    def test_rates_span_the_configured_band(self):
        scenario = small_scenario(n_regions=6, length=400)
        beta, gamma = true_parameter_series(scenario)
        assert beta.min() >= scenario.beta_low - 1e-12
        assert beta.max() <= scenario.beta_high + 1e-12
        assert beta.max() - beta.min() > 0.5 * (scenario.beta_high - scenario.beta_low)
        np.testing.assert_array_equal(gamma, np.full_like(gamma, scenario.gamma))

    def test_seasonal_rates_repeat_with_period(self):
        scenario = small_scenario(length=400)
        beta, _ = true_parameter_series(scenario)
        period = int(scenario.season_period)
        np.testing.assert_allclose(beta[:, :100], beta[:, period : period + 100], atol=1e-12)

    def test_bump_rates_peak_mid_panel_alike_in_every_region(self):
        scenario = small_scenario(n_regions=3, length=60, beta_kind="bump")
        beta, _ = true_parameter_series(scenario)
        peak = scenario.length // 2
        assert beta[:, peak] == pytest.approx(scenario.beta_high)
        assert (beta.argmax(axis=1) == peak).all()
        # mirror images about the peak day, on the days both sides have
        np.testing.assert_array_equal(beta[:, peak - 1 : 0 : -1], beta[:, peak + 1 :])
        assert beta.min() >= scenario.beta_low
        np.testing.assert_array_equal(beta, np.broadcast_to(beta[0], beta.shape))

    def test_constant_rates_sit_mid_band(self):
        scenario = small_scenario(n_regions=3, length=60, beta_kind="constant")
        beta, _ = true_parameter_series(scenario)
        mid = (scenario.beta_low + scenario.beta_high) / 2
        np.testing.assert_array_equal(beta, np.full((3, 60), mid))

    @pytest.mark.parametrize("kind", ["bump", "constant"])
    def test_other_rate_kinds_simulate_a_valid_world(self, kind):
        data = generate_synthetic(small_scenario(n_regions=3, length=60, beta_kind=kind))
        assert data.values.shape[:2] == (3, 60)
        assert np.isfinite(data.values).all()
        assert (data.values >= 0.0).all()

    def test_phases_cover_the_cycle(self):
        # stratified phases: with n regions, consecutive sorted phases are
        # no more than two strata apart
        scenario = SyntheticScenario(seed=3, n_regions=8)
        from epicast.datasets import _populations_and_sites

        _, _, phases = _populations_and_sites(scenario)
        spread = np.diff(np.sort(phases))
        assert spread.max() <= 2 * scenario.season_period / 8

    def test_mobility_weekly_modulation(self):
        scenario = small_scenario(length=28)
        flows = mobility_schedule(scenario)
        np.testing.assert_allclose(flows[:, :, 0], flows[:, :, 7], rtol=1e-12)
        assert not np.allclose(flows[:, :, 0], flows[:, :, 3])

    def test_dataset_shapes_and_validity(self):
        scenario = small_scenario(n_regions=4, length=30)
        data = generate_synthetic(scenario)
        assert data.n_regions == 4
        assert data.n_days == 30
        assert data.dates[0] == scenario.start_date

    def test_bad_scenario_rejected(self):
        cases = [("beta_kind", "spiky"), ("beta_low", 0.0), ("beta_high", 0.01),
                 ("beta_high", 1.0), ("start_date", "garbage"), ("start_date", "2020-02-30"),
                 ("start_date", "20200101"), ("start_date", "2020-W01-3"),
                 ("population_high", 10.0), ("population_high", float("inf")),
                 ("population_high", float("nan"))]
        for field, value in cases:
            with pytest.raises(ConfigRangeError) as raised:
                SyntheticScenario(**{field: value})
            assert raised.value.field == field

    @pytest.mark.parametrize(
        "field,value",
        [("n_regions", 0), ("length", 0), ("noise", -0.1), ("noise", float("inf")),
         ("noise", float("nan")),
         ("seed", -1), ("population_low", -5.0), ("population_low", 0.0),
         ("season_period", 0.0), ("season_period", float("inf")), ("gamma", -0.1),
         ("gamma", 1.5), ("initial_infected_fraction", 2.0), ("weekly_amplitude", 3.0),
         ("self_flow", -1.0), ("self_flow", float("inf")), ("cross_flow", -0.1)],
    )
    def test_out_of_range_scenario_names_its_field(self, field, value):
        with pytest.raises(ConfigRangeError) as raised:
            SyntheticScenario(**{field: value})
        assert raised.value.field == field
