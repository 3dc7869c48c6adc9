"""Data layer: the panel type, CSV round trips and loader checks,
chronological splitting, window slicing, and the seeded synthetic generator."""

from __future__ import annotations

import csv
import re
import tempfile
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from epicast import metapop
from epicast.domain import ConfigRangeError
from epicast.datasets import (
    CORE_CHANNELS,
    DataError,
    Dataset,
    SyntheticScenario,
    atomic_write,
    chronological_split,
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

    def test_day_range_copies_its_arrays(self):
        data = panel(2, 6, extras=1)
        before = data.values.copy(), data.flows.copy(), data.population.copy()
        part = data.day_range(1, 4)
        for array in (part.values, part.flows, part.population):
            array[...] = -1.0
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

    @settings(max_examples=100, deadline=None)
    @given(st.lists(
        st.one_of(
            st.dates().map(date.isoformat),
            st.text("0123456789- ", max_size=11),
            st.tuples(st.integers(0, 9999), st.integers(0, 13), st.integers(0, 32)).map(
                lambda ymd: "%04d-%02d-%02d" % ymd
            ),
        ),
        min_size=1, max_size=40,
    ))
    def test_dates_read_by_arithmetic_match_the_per_field_rule(self, spellings):
        from epicast.datasets import _Defects, _day, _ordinals

        raw = np.array(sorted(s.encode() for s in spellings), dtype="S11")
        days = [_day(s) for s in sorted(spellings)]
        want = [0 if isinstance(d, str) else d.toordinal() for d in days]
        defects = _Defects(Path("x.csv"), len(raw))
        assert _ordinals(defects, raw).tolist() == want
        assert defects.end == next((i for i, w in enumerate(want) if not w), len(raw))

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

    def test_windows_are_contiguous_copies(self):
        data = panel(3, 12, extras=2)
        windows = windowize(data, 4, 2)
        before = data.values.copy()
        for name in ("observations", "targets", "susceptible0", "infected0", "recovered0"):
            array = getattr(windows, name)
            assert array.flags.c_contiguous and array.flags.writeable, name
            assert not np.shares_memory(array, data.values), name
            array[...] = -1.0
        np.testing.assert_array_equal(data.values, before)

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
        assert batch.size == 2

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
        assert not batch.mobility.flags.writeable
        assert np.shares_memory(batch.mobility, data.flows)
        with pytest.raises(ValueError, match="read-only"):
            batch.mobility[0, 0, 0, 0] = -1.0

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
        # replay the simulation with the public mechanistic pieces
        infected0 = scenario.initial_infected_fraction * data.population
        s, i, r = data.population - infected0, infected0, np.zeros(scenario.n_regions)
        for t in range(scenario.length):
            strength = metapop.transmission_strength(flows[:, :, t], data.population, i)
            s, i, r, fresh = metapop.step(s, i, r, beta[:, t], gamma[:, t], strength)
            np.testing.assert_array_equal(data.values[:, t, 0], fresh)
            np.testing.assert_array_equal(data.values[:, t, 1:], np.stack([s, i, r], axis=-1))

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
