import dataclasses
import io
import itertools
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from canids.canbus import (
    KIND_LINES,
    KIND_NAMES,
    MAX_CAN_ID,
    AttackSpec,
    CanFrame,
    EcuSpec,
    RawRecord,
    SimProfile,
    generate_traffic,
    inject_attack,
    write_kind_lines,
    write_log,
)
from canids.ingest import (
    CONTAINER_MAGIC,
    N_FEATURES,
    AllRowsMissing,
    CorruptContainer,
    EmptyColumn,
    EmptyInput,
    IdOutOfRange,
    LengthMismatch,
    MAX_PAYLOAD_BYTES,
    NormalizationParams,
    NotText,
    PayloadTooLong,
    RecordTable,
    TooFewValues,
    UnknownKind,
    ZeroVariance,
    correlation_matrix,
    impute_missing,
    load_dataset,
    parse_log,
    pearson,
    prepare_records,
    read_kinds,
    rosner_outliers,
    save_dataset,
    split_dataset,
)
from helpers import (
    LogRow,
    array_bytes,
    desk_log_bytes,
    encode_table,
    fit_feature_params,
    raw_features,
    scale_in_place,
    traced_peak,
    traffic_log,
)

from canids import ingest
from canids.baselines import knn_fit, knn_predict, tree_fit
from canids.bounds import OutOfRange
from canids.plenet import TrainConfig

# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def hex_to_dec_oracle(text):
    """Positional accumulation, one digit at a time."""
    digits = "0123456789ABCDEF"
    value = 0
    for ch in text.replace(" ", "").upper():
        value = value * 16 + digits.index(ch)
    return value


def esd_oracle(values, max_outliers, alpha):
    """Direct re-implementation of the generalized ESD recursion on masks."""
    x = np.asarray(values, dtype=np.float64)
    n = len(x)
    mask = np.ones(n, dtype=bool)
    removed, decisions = [], []
    for i in range(1, max_outliers + 1):
        sub = x[mask]
        if sub.std(ddof=1) == 0:
            break
        dev = np.abs(sub - sub.mean())
        local = int(np.argmax(dev))
        orig = np.flatnonzero(mask)[local]
        r_stat = dev[local] / sub.std(ddof=1)
        size = n - i + 1
        t = stats.t.ppf(1 - alpha / (2 * size), size - 2)
        lam = (size - 1) * t / math.sqrt((size - 2 + t * t) * size)
        removed.append(orig)
        decisions.append(r_stat > lam)
        mask[orig] = False
    keep = 0
    for i, dec in enumerate(decisions, start=1):
        if dec:
            keep = i
    return set(removed[:keep])


def table(text):
    return RecordTable.from_raw(parse_log(text))


class TestParseLog:
    def test_direct_field_mapping(self):
        [rec] = parse_log("0.123,0130,2,AB CD,0")
        assert rec == RawRecord(0.123, "130", 2, "AB CD", "0")

    def test_columns_and_dtypes(self):
        log = parse_log("0.123,0130,2,AB CD,0\n0.25,1A3,0,,1\n")
        assert log.timestamp.tolist() == [0.123, 0.25] and log.timestamp.dtype == np.float64
        assert log.can_id.tolist() == [0x130, 0x1A3] and log.can_id.dtype == np.int64
        assert log.dlc.tolist() == [2, 0] and log.dlc.dtype == np.int64
        assert log.payload.dtype == np.uint8 and log.payload.shape == (2, 8)
        assert log.payload[0, :2].tolist() == [0xAB, 0xCD] and not log.payload[0, 2:].any()
        assert log.payload_len.tolist() == [2, 0] and log.label.tolist() == [0, 1]
        assert log.kind.tolist() == [0, 0] and log.kind.dtype == np.uint8
        assert log.missing.shape == (2, 5) and not log.missing.any()

    def test_parses_into_the_simulator_log_type(self):
        log = inject_attack(generate_traffic(SimProfile((EcuSpec(0x0A0, 0.1, 4), EcuSpec(0x130, 0.1)), 3.0, seed=2)),
                            AttackSpec("fuzzing", 0.5, 2.5, 40.0, seed=3))
        text = io.StringIO()
        write_log(log, text)
        parsed = parse_log(text.getvalue())
        assert type(parsed) is type(log)
        assert np.array_equal(log.payload_len, log.dlc) and not log.missing.any()
        for name in ("timestamp", "can_id", "dlc", "payload", "payload_len", "label", "missing"):
            assert np.array_equal(getattr(parsed, name), getattr(log, name)), name
        again = io.StringIO()
        write_log(parsed, again)
        assert again.getvalue() == text.getvalue()

    @pytest.mark.parametrize("quoted", [False, True])
    def test_bytes_that_are_not_utf8_name_the_file_offset(self, quoted):
        # the bad byte lies in a run of rows past the fast path's, or in a log read through csv whole
        blob = b'Timestamp,CAN_ID,DLC,Data_Field,Label\n0.5,0130,1,AB,0\n1.0,0130,1,AB,0\n1.5,0130,1,AB,\xff\n'
        if quoted:
            blob += b'2.0,0130,1,"AB",0\n'
        with pytest.raises(NotText) as exc:
            parse_log(blob)
        assert str(exc.value) == f"not UTF-8 text (invalid start byte at byte {blob.index(0xFF)})"

    @pytest.mark.parametrize("as_stream", [False, True])
    def test_text_with_a_lone_surrogate_names_the_byte_offset(self, as_stream):
        # what surrogateescape decoding leaves for the byte 0xFF at byte 11 of "1.0,0130,1,\xff,0\n"
        text = "1.0,0130,1,\udcff,0\n"
        with pytest.raises(NotText) as exc:
            parse_log(io.StringIO(text) if as_stream else text)
        assert str(exc.value) == "not UTF-8 text (surrogates not allowed at byte 11)"
        # the offset counts UTF-8 bytes, not characters
        with pytest.raises(NotText, match=r"^not UTF-8 text \(surrogates not allowed at byte 13\)$"):
            parse_log("1.0,0130,1,é\udcff,0\n")

    def test_missing_dlc_sets_flag(self):
        [rec] = parse_log("0.5,0130,,AB CD,1")
        assert rec.dlc is None
        assert rec.missing_fields() == frozenset({"dlc"})

    def test_header_skipped(self):
        records = parse_log("Timestamp,CAN_ID,DLC,Data_Field,Label\n1.0,02B0,1,FF,0")
        assert len(records) == 1

    def test_label_words_normalized(self):
        records = parse_log("1.0,0130,1,00,Normal\n2.0,0130,1,00,Attack")
        assert [r.label_text for r in records] == ["0", "1"]

    def test_row_without_id_or_data_rejected(self):
        records = parse_log("1.0,0130,1,00,0\n2.0,,1,,0\n3.0,02B0,1,11,1")
        assert len(records) == 2

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            parse_log("Timestamp,CAN_ID,DLC,Data_Field,Label\n")

    def test_extended_payload_tolerated(self):
        long_field = " ".join(["7F"] * 19)  # 152 bits
        [rec] = parse_log(f"0.0,0100,19,{long_field},0")
        assert rec.data_hex == long_field

    def test_order_preserved(self):
        text = "\n".join(f"{i}.0,0100,1,0{i},0" for i in range(5))
        assert [r.timestamp for r in parse_log(text)] == [float(i) for i in range(5)]

    def test_fields_held_in_canonical_form(self):
        [rec] = parse_log(" 0.5 , 0x1a3 ,2, b  c ,Attack")
        assert rec == RawRecord(0.5, "1A3", 2, "0B 0C", "1")

    @pytest.mark.parametrize("cell", ["FFFFFFFFFFFFFFFFFFFFFF", "20000000", "0x20000000"])
    def test_id_above_29_bits_is_missing(self, cell):
        for end in ("", "\n"):  # a last line with no line feed takes the per-cell parsers
            [rec] = parse_log(f"0.1,{cell},1,0A,0{end}")
            assert rec.missing_fields() == frozenset({"can_id_hex"})
            [rec] = parse_log(f"0.1,1FFFFFFF,1,0A,0{end}")
            assert rec.can_id_hex == "1FFFFFFF"

    def test_payload_or_dlc_above_64_bytes_is_missing(self):
        at_bound = " ".join(["FF"] * MAX_PAYLOAD_BYTES)
        for end in ("", "\n"):
            [rec] = parse_log(f"0.0,0100,64,{at_bound},0{end}")
            assert rec.missing_fields() == frozenset()
            for cell in (at_bound + " FF", at_bound.lower() + " ff"):  # canonical and not
                [rec] = parse_log(f"0.0,0100,8,{cell},0{end}")
                assert rec.missing_fields() == frozenset({"data_hex"})
            [rec] = parse_log(f"0.0,0100,65,0A,0{end}")
            assert rec.missing_fields() == frozenset({"dlc"})

    def test_dlc_above_bound_imputed_from_observed_mean(self):
        records = parse_log("0.0,0130,2,0A 0B,0\n1.0,0130,1000000,ZZ,0")
        assert list(records)[1].missing_fields() == frozenset({"dlc", "data_hex"})
        imputed = list(impute_missing(records, "fieldmean"))[1]
        assert (imputed.dlc, imputed.data_hex) == (2, "0A 0B")

    def test_open_file_parses_like_its_text(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_bytes(
            b"Timestamp,CAN_ID,DLC,Data_Field,Label\r\n0.1,0130,2,AB CD,0\r\n\r\n"
            b"0.2,02B0,,ZZ,Attack\r\n0.3,0x1a3,1,0f,1\r\n"
        )
        with open(path, newline="") as fh:
            from_file = parse_log(fh)
        assert list(from_file) == list(parse_log(path.read_text())) == list(parse_log(path.read_bytes()))
        assert [r.timestamp for r in from_file] == [0.1, 0.2, 0.3]

    @pytest.mark.parametrize("cell", ["+130", "-1", "1_30", "\u0661\u0663\u0660", "0x0x12", "0x 12"])
    def test_signed_or_non_ascii_id_is_missing(self, cell):
        [rec] = parse_log(f"0.1,{cell},1,0A,0")
        assert rec.missing_fields() == frozenset({"can_id_hex"})

    @pytest.mark.parametrize("cell", ["-1", "+F", "0A -1", "-0", "\u0663", "\u0661\u0663"])
    def test_signed_or_non_ascii_data_is_missing(self, cell):
        [rec] = parse_log(f"0.1,0100,1,{cell},0")
        assert rec.missing_fields() == frozenset({"data_hex"})

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])
    def test_non_finite_timestamp_is_missing(self, cell):
        records = parse_log(f"1.0,0100,1,0A,0\n{cell},0100,1,0B,0\n3.0,0100,1,0C,1")
        assert list(records)[1].missing_fields() == frozenset({"timestamp"})
        assert [r.timestamp for r in impute_missing(records, "droprow")] == [1.0, 3.0]
        assert list(impute_missing(records, "fieldmean"))[1].timestamp == 2.0


class TestHexConversion:
    """The parser reads identifiers and data fields as numbers, on the fast path and off it."""

    def test_58b(self):
        assert table("0.0,58B,1,0A,0\n0.1,0x58b,1,0A,0").can_id.tolist() == [1419, 1419]

    def test_f41(self):
        assert table("0.0,F41,1,0A,0\n0.1, f41 ,1,0A,0").can_id.tolist() == [3905, 3905]

    def test_spaced_payload_matches_oracle(self):
        text = "80 7F 00 73 20 00 0A A1"
        got = table(f"0.0,0100,8,{text},0\n0.1,0100,8,{text.lower()},0")
        assert got.data_value.tolist() == [float(hex_to_dec_oracle(text))] * 2
        assert got.payload.tolist() == [list(bytes.fromhex(text))] * 2

    def test_invalid_digit(self):
        for cell in ("0xZZ", "  ", "G1", "1 3"):
            [rec] = parse_log(f"0.0,{cell},1,0A,0")
            assert rec.missing_fields() == frozenset({"can_id_hex"})

    @given(st.integers(0, 2**152 - 1))
    def test_round_trip_identity(self, value):
        data = value.to_bytes(max(1, (value.bit_length() + 7) // 8), "big")
        text = data.hex(" ").upper()
        log = parse_log(f"0.0,0100,{len(data)},{text},0")
        assert [r.data_hex for r in log] == [text]
        assert table(f"0.0,0100,{len(data)},{text},0").data_value.tolist() == [float(value)]

    @given(st.integers(0, 2**152 - 1))
    def test_matches_positional_oracle(self, value):
        digits = format(value, "x")
        tokens = [digits[max(0, i - 2) : i] for i in range(len(digits), 0, -2)][::-1]  # "1 ab cd": not canonical
        text = " ".join(tokens)
        assert table(f"0.0,0100,{len(tokens)},{text},0").data_value.tolist() == [
            float(hex_to_dec_oracle(text))
        ]


class TestRosnerOutliers:
    def test_identical_values_empty_set(self):
        assert rosner_outliers([3.5] * 100, max_outliers=5) == set()

    def test_gross_outlier_flagged(self):
        rng = np.random.default_rng(17)
        values = list(rng.standard_normal(50)) + [100.0]
        flagged = rosner_outliers(values, max_outliers=5, alpha=0.05)
        assert 50 in flagged
        assert flagged == esd_oracle(values, 5, 0.05)

    def test_matches_oracle_on_random_samples(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            values = rng.standard_normal(40)
            if trial % 3 == 0:
                values[:3] += rng.uniform(4, 12, size=3)
            got = rosner_outliers(values, max_outliers=6, alpha=0.05)
            assert got == esd_oracle(values, 6, 0.05)

    def test_false_positive_rate_bounded(self):
        # Monte-Carlo size check: clean data should rarely trigger any flag.
        rng = np.random.default_rng(2024)
        hits = sum(
            bool(rosner_outliers(rng.standard_normal(60), max_outliers=3, alpha=0.05))
            for _ in range(200)
        )
        assert hits / 200 <= 0.07

    def test_too_few_values(self):
        with pytest.raises(TooFewValues):
            rosner_outliers([1.0] * 24, max_outliers=1)


class TestImputeMissing:
    def test_no_flags_identity(self):
        records = parse_log("1.0,0130,1,00,0\n2.0,02B0,2,01 02,1")
        assert impute_missing(records, "droprow") is records
        assert impute_missing(records, "fieldmean") is records

    def test_droprow_count(self):
        rows = ["%d.0,0100,1,0A,0" % i for i in range(7)]
        rows += ["7.0,0100,,0A,0", "8.0,,1,0B,0", "9.0,0100,1,,0"]
        records = parse_log("\n".join(rows))
        assert len(impute_missing(records, "droprow")) == 7

    def test_fieldmean_dlc(self):
        records = parse_log("1.0,0100,8,01 02 03 04 05 06 07 08,0\n2.0,0100,,01,0\n3.0,0100,4,01 02 03 04,0")
        filled = list(impute_missing(records, "fieldmean"))
        assert filled[1].dlc == 6
        assert not any(r.missing_fields() for r in filled)

    def test_fieldmean_all_missing_column(self):
        records = parse_log(",0100,1,0A,0\n,0100,1,0B,1")
        with pytest.raises(AllRowsMissing, match="Timestamp"):
            impute_missing(records, "fieldmean")

    def test_fieldmean_needs_payload_means_only_for_positive_dlc(self):
        # no row has a payload, but the one missing it has DLC 0
        records = parse_log("0.1,0100,0,,0\n0.2,0100,0,ZZ,1")
        assert list(impute_missing(records, "fieldmean"))[1].data_hex == ""
        with pytest.raises(AllRowsMissing, match="Data_Field"):
            impute_missing(parse_log("0.1,0100,0,,0\n0.2,0100,1,ZZ,1"), "fieldmean")

    def test_fieldmean_clean_rows_are_the_same_objects(self):
        # clean rows come back unchanged, and the input log is left as it was
        records = parse_log("1.0,0100,1,0A,0\n,0100,1,0B,0\n3.0,0100,1,0C,1")
        before = list(records)
        filled = list(impute_missing(records, "fieldmean"))
        assert list(records) == before
        assert filled[0] == before[0] and filled[2] == before[2]
        assert filled[1] == dataclasses.replace(before[1], timestamp=2.0)

    def test_fieldmean_computes_each_mean_once(self, monkeypatch):
        rows = [f"{i}.0,0100,2,0{i % 10} 1{i % 10},{i % 2}" for i in range(30)]
        rows += [",0100,2,01 02,0", "9.0,,2,01 02,0", "9.0,0100,,01 02,0", "9.0,0100,3,ZZ,0", "9.0,0100,2,01,?"]
        records = parse_log("\n".join(rows * 3))
        calls = []
        mean = np.mean
        monkeypatch.setattr(np, "mean", lambda values: calls.append(len(values)) or mean(values))
        filled = impute_missing(records, "fieldmean")
        assert not any(r.missing_fields() for r in filled)
        # timestamp, identifier, DLC and label means; payload means need no np.mean
        assert len(calls) == 4


class TestPearson:
    def test_perfect_correlation(self):
        x = [1.0, 2.0, 5.0, 7.0]
        assert pearson(x, x) == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        x = np.array([1.0, 2.0, 5.0, 7.0])
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_hand_computed_value(self):
        # direct evaluation: r = 3 / sqrt(2 * 14/3) = 9 / (2 * sqrt(21))
        assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(9 / (2 * math.sqrt(21)), abs=1e-12)

    def test_matches_numpy(self):
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal(200), rng.standard_normal(200)
        assert pearson(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-12)

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            pearson([1, 2], [1, 2, 3])
        with pytest.raises(ZeroVariance):
            pearson([1, 1, 1], [1, 2, 3])

    @given(
        st.lists(st.floats(-100, 100), min_size=3, max_size=30),
        st.floats(0.1, 10),
        st.floats(-5, 5),
    )
    def test_scale_shift_invariance(self, xs, a, b):
        rng = np.random.default_rng(len(xs))
        ys = rng.standard_normal(len(xs))
        x = np.asarray(xs)
        if x.std() < 1e-6 or (a * x + b).std() == 0:
            return
        base = pearson(x, ys)
        assert pearson(a * x + b, ys) == pytest.approx(base, abs=1e-9)
        assert pearson(-a * x + b, ys) == pytest.approx(-base, abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal(50), rng.standard_normal(50)
        assert pearson(x, y) == pytest.approx(pearson(y, x), abs=1e-15)


class TestCorrelationMatrix:
    def test_unit_diagonal(self):
        rng = np.random.default_rng(0)
        cols = {"a": rng.standard_normal(100), "b": rng.standard_normal(100)}
        result = correlation_matrix(cols)
        assert np.allclose(np.diag(result.r), 1.0)

    def test_independent_columns_near_zero(self):
        rng = np.random.default_rng(42)
        cols = {name: rng.uniform(size=10_000) for name in ("Timestamp", "CAN_ID", "DLC", "Data_Field")}
        result = correlation_matrix(cols)
        off = result.r[~np.eye(4, dtype=bool)]
        assert np.all(np.abs(off) < 0.05)

    def test_significance_flags(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(500)
        cols = {"x": x, "linked": x + 0.1 * rng.standard_normal(500), "noise": rng.standard_normal(500)}
        result = correlation_matrix(cols)
        assert result.significant[0, 1]
        assert not result.significant.diagonal().any()


def same_bits(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestStudentT:
    """``rosner_outliers`` and ``correlation_matrix`` take the Student-t quantile and survival function from
    ``scipy.special``; every value they get must equal ``scipy.stats.t``'s bit for bit."""

    DFS = [-1, 0, 1, 2, 3, 23, 1000, 1_257_301, 0.5, math.inf, math.nan]

    @pytest.mark.parametrize("df", DFS)
    def test_quantile_grid(self, df):
        from scipy import special

        # p = 0 is left out: there stdtrit gives +inf and stats.t.ppf -inf, but rosner_outliers asks for
        # p = 1 - alpha / (2m) > 5/6 only
        for p in (1e-300, 1e-10, 0.025, 0.5, 5 / 6, 0.975, 1 - 1e-10, 1 - 1e-16, 1 - 1e-17, 1.0, 1.5, -0.1, math.nan):
            assert same_bits(special.stdtrit(df, p), stats.t.ppf(p, df)), p

    @pytest.mark.parametrize("df", DFS)
    def test_survival_grid(self, df):
        from scipy import special

        for x in (0.0, 1e-300, 0.5, 2.0, 40.0, 1e10, 1e300, math.inf, math.nan):
            assert same_bits(special.stdtr(df, -x), stats.t.sf(x, df)), x

    ORACLES = {"stdtrit": lambda df, p: stats.t.ppf(p, df), "stdtr": lambda df, x: stats.t.sf(-x, df)}

    @pytest.fixture
    def calls(self, monkeypatch):
        """Each Student-t call the library makes, with its result; ``check`` compares them with ``scipy.stats.t``."""
        from scipy import special

        made = []

        def spy(name):
            real = getattr(special, name)

            def call(df, x):
                made.append((name, df, x, real(df, x)))
                return made[-1][-1]

            monkeypatch.setattr(special, name, call)

        for name in self.ORACLES:
            spy(name)
        yield made

    def check(self, calls, monkeypatch):
        monkeypatch.undo()  # scipy.stats.t calls the same scipy.special functions
        for name, df, x, out in calls:
            assert same_bits(out, self.ORACLES[name](df, x)), (name, df, x)

    def test_rosner_outliers(self, calls, monkeypatch):
        rng = np.random.default_rng(12)
        samples = [rng.standard_normal(25), np.r_[rng.standard_normal(60), 40.0, -35.0], rng.standard_normal(2000)]
        # alpha 1e-300 makes p round to 1 (an infinite quantile, a NaN critical value, nothing flagged)
        cases = [(values, min(len(values) - 2, 30), alpha)  # df down to 1 on the 25-value sample
                 for values, alpha in itertools.product(samples, (1e-300, 1e-17, 0.05, 0.5, 1 - 1e-16))]
        with np.errstate(invalid="ignore"):
            got = [rosner_outliers(values, max_outliers=k, alpha=alpha) for values, k, alpha in cases]
            self.check(calls, monkeypatch)
            assert got == [esd_oracle(*case) for case in cases]
        assert {df for _, df, _, _ in calls} >= {1, 1998} and 1.0 in {p for _, _, p, _ in calls}

    def test_correlation_matrix(self, calls, monkeypatch):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(200)
        cases = [
            {"a": [1.0, 2.0], "b": [3.0, 5.0]},  # two rows: df 0
            {"a": x, "b": 2 * x + 1, "c": -x},  # |r| = 1 to rounding
            {"a": x, "b": x + rng.standard_normal(200), "c": rng.standard_normal(200)},
            {"a": np.r_[x[:-1], math.inf], "b": x},  # an infinite value: r and t are NaN
        ]
        with np.errstate(invalid="ignore"):
            results = [correlation_matrix(columns) for columns in cases]
            self.check(calls, monkeypatch)
            for columns, result in zip(cases, results):
                n = len(columns["a"])
                for i, j in itertools.combinations(range(len(columns)), 2):
                    r = result.r[i, j]
                    t = r * math.sqrt((n - 2) / max(1 - r * r, 1e-300))
                    assert same_bits(result.p[i, j], 2 * float(stats.t.sf(abs(t), n - 2))), (i, j)
        assert 0 in {df for _, df, _, _ in calls} and any(math.isnan(x) for _, _, x, _ in calls)


def scaled(values, params):
    """``values`` min-max scaled by the reference encoder, which ``split_dataset`` equals bit for bit."""
    return scale_in_place(np.array(values, dtype=np.float64), params)


class TestMinMax:
    def test_bounds_and_midpoint(self):
        params = NormalizationParams([0.0], [10.0])
        assert scaled([[0.0], [10.0], [5.0]], params).tolist() == [[0.0], [1.0], [0.5]]

    def test_degenerate_feature_maps_to_zero(self):
        params = NormalizationParams([7.0], [7.0])
        assert scaled([7.0], params)[0] == 0.0
        assert scaled([[9.0], [-1.0]], params).tolist() == [[0.0], [0.0]]

    def test_out_of_range_clamped(self):
        params = NormalizationParams([0.0], [10.0])
        assert scaled([[-5.0], [15.0]], params).tolist() == [[0.0], [1.0]]

    @pytest.mark.parametrize("mins, maxs", [([np.nan], [1.0]), ([0.0], [np.nan]), ([np.nan], [np.nan]),
                                            ([-np.inf], [1.0]), ([0.0], [np.inf])])
    def test_non_finite_pairs_rejected(self, mins, maxs):
        with pytest.raises(ValueError, match="feature mins and maxs must be finite"):
            NormalizationParams(mins, maxs)

    def test_empty_fit(self):
        with pytest.raises(EmptyColumn):
            ingest._fit_features(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    def test_apply_fit_in_unit_interval(self, values):
        col = np.asarray(values)[:, None]
        params = NormalizationParams(col.min(axis=0), col.max(axis=0))
        out = scaled(col, params)
        assert np.all((out >= 0.0) & (out <= 1.0))
        if col.max() > col.min():
            assert out.min() == 0.0 and out.max() == 1.0


class TestEncode:
    # identifiers 0x100..0x700 and DLCs 0..8: the ranges every case below stays within
    FIT_ROWS = (LogRow(0.0, 0x100, 8, bytes(range(8)), 0), LogRow(1.0, 0x700, 0, b"", 1))

    def encode(self, table):
        """Features and labels of ``table``'s rows as ``split_dataset`` encodes them, beside ``FIT_ROWS``, in row order."""
        fit = RecordTable.from_traffic(traffic_log(self.FIT_ROWS))
        both = RecordTable(*(np.concatenate([getattr(fit, f.name), getattr(table, f.name)])
                             for f in dataclasses.fields(RecordTable)))
        ds = split_dataset(both, test_fraction=0, val_fraction=0)
        assert ds.sizes() == (len(both), 0, 0)
        order = np.random.default_rng(0).permutation(len(both))
        x, y = np.empty_like(ds.train_x), np.empty_like(ds.train_y)
        x[order], y[order] = ds.train_x, ds.train_y
        return x[len(fit):], y[len(fit):]

    def test_minimum_id_empty_payload(self):
        x, y = self.encode(RecordTable.from_traffic(traffic_log([LogRow(0.0, 0x100, 0, b"", 0)])))
        assert x[0, 0] == 0.0
        assert np.all(x[0, 2:] == 0.0)
        assert y.tolist() == [0]

    def test_full_byte_scales_to_one(self):
        x, _ = self.encode(RecordTable.from_traffic(traffic_log([LogRow(0.0, 0x100, 1, b"\xff", 0)])))
        assert x[0, 2] == 1.0

    def test_shape_and_range(self):
        rng = np.random.default_rng(2)
        records = []
        for _ in range(20):
            dlc = int(rng.integers(0, 9))
            records.append(LogRow(
                0.0,
                int(rng.integers(0x100, 0x701)),
                dlc,
                bytes(int(b) for b in rng.integers(0, 256, dlc)),
                int(rng.integers(0, 2)),
            ))
        x, y = self.encode(RecordTable.from_traffic(traffic_log(records)))
        assert x.shape == (20, 16)
        assert np.all((x >= 0.0) & (x <= 1.0))
        assert y.tolist() == [r.label for r in records]

    def test_unknown_sidecar_kind_rejected(self, tmp_path):
        # the names message these strays make is pinned through prepare, in test_cli.py
        sidecar = tmp_path / "log.csv.kinds"
        sidecar.write_text("normal\nfuzzing\n")
        codes, lines = read_kinds(sidecar, [""], NotText)
        assert codes.dtype == np.uint8 and codes.tolist() == [0, KIND_NAMES.index("fuzzing")] and lines == []
        sidecar.write_text("normal\ngarbage_kind_name\nbogus\n")
        strays, lines = read_kinds(sidecar, [""], NotText)
        assert strays.tolist() == [0, 255, 255] and lines == ["normal", "garbage_kind_name", "bogus", ""]
        records = parse_log("0.0,0100,1,11,0\n0.1,0100,1,11,1")
        assert RecordTable.from_raw(dataclasses.replace(records, kind=codes)).kind.tolist() == [0, 2]
        assert RecordTable.from_raw(records).kind.tolist() == [0, 0]
        for bad in ([0, len(KIND_NAMES)], [0, 255], [-1, 0]):
            with pytest.raises(UnknownKind, match="outside KIND_NAMES"):
                RecordTable.from_raw(dataclasses.replace(records, kind=np.array(bad)))
        with pytest.raises(LengthMismatch, match="^1 kind codes for 2 rows$"):
            RecordTable.from_raw(dataclasses.replace(records, kind=codes[:1]))

    def test_id_above_29_bits_rejected(self):
        # parse_log marks such identifiers missing; a hand-built log still cannot pass
        log = parse_log("0.0,0100,1,0A,0")
        with pytest.raises(IdOutOfRange):
            RecordTable.from_raw(dataclasses.replace(log, can_id=np.array([2**40])))
        assert table("0.0,1FFFFFFF,1,0A,0").can_id[0] == 0x1FFFFFFF

    def test_data_field_above_64_bytes_rejected(self):
        log = parse_log("0.0,0100,8,FF,0")
        with pytest.raises(PayloadTooLong):
            RecordTable.from_raw(dataclasses.replace(log, payload_len=np.array([200])))
        assert table(f"0.0,0100,64,{' '.join(['FF'] * 64)},0").data_value[0] == float(2**512 - 1)

    @pytest.mark.parametrize("data_hex", ["-1", "+F", "0A ZZ", "A"])
    def test_non_hex_data_field_rejected(self, data_hex, monkeypatch):
        # the fast path takes only uppercase two-digit hex bytes; the per-cell parser decides the rest
        rows = []
        parse_rows = ingest._parse_rows
        monkeypatch.setattr(ingest, "_parse_rows", lambda text, at_start: rows.append(text) or parse_rows(text, at_start))
        [rec] = parse_log(f"0.0,0100,1,{data_hex},0\n")
        assert rows == [f"0.0,0100,1,{data_hex},0\n"]
        assert rec.data_hex == ("0A" if data_hex == "A" else None)

    def test_payload_and_data_value_from_hex_bytes(self):
        got = table("0.0,0100,3,0A 00 FF,1\n0.1,0200,0,,0")
        assert got.payload.tolist() == [[10, 0, 255, 0, 0, 0, 0, 0], [0] * 8]
        assert got.data_value.tolist() == [float(0x0A00FF), 0.0]
        assert got.label.tolist() == [1, 0]

    def test_oversized_payload_truncated(self):
        x, _ = self.encode(table(f"0.0,0100,10,{' '.join(['11'] * 10)},0"))
        assert x.shape == (1, 16)
        assert np.all(x[0, 2:10] == 0x11 / 255)
        assert np.all(x[0, 10:] == 0.0)


class TestSplitDataset:
    @staticmethod
    def toy_table(n, seed=0):
        rng = np.random.default_rng(seed)
        return RecordTable(
            timestamp=np.arange(n, dtype=np.float64),
            can_id=rng.integers(0, 0x800, n),
            dlc=rng.integers(0, 9, n),
            payload=rng.integers(0, 256, (n, 8)).astype(np.uint8),
            data_value=rng.uniform(size=n),
            label=rng.integers(0, 2, n).astype(np.uint8),
            kind=np.zeros(n, dtype=np.uint8),
        )

    def test_floor_sizes_n10(self):
        ds = split_dataset(self.toy_table(10), seed=1)
        assert ds.sizes() == (7, 1, 2)

    def test_deterministic_per_seed(self):
        table = self.toy_table(500)
        a = split_dataset(table, seed=7)
        b = split_dataset(table, seed=7)
        c = split_dataset(table, seed=8)
        assert np.array_equal(a.train_x, b.train_x)
        assert np.array_equal(a.test_y, b.test_y)
        assert a.sizes() == c.sizes()
        assert not np.array_equal(a.train_x, c.train_x)

    def test_partitions_disjoint_and_exhaustive(self):
        table = self.toy_table(257)
        table.timestamp[:] = np.arange(257)  # unique marker per row
        ds = split_dataset(table, seed=3)
        # timestamps don't enter features, so recover rows via the permutation
        perm = np.random.default_rng(3).permutation(257)
        n_test = math.floor(0.2 * 257)
        rest = perm[n_test:]
        n_val = math.floor(0.2 * len(rest))
        pieces = (perm[:n_test], rest[:n_val], rest[n_val:])
        joined = np.concatenate(pieces)
        assert len(np.unique(joined)) == 257
        assert ds.sizes() == (len(pieces[2]), len(pieces[1]), len(pieces[0]))

    def test_norm_fitted_on_train_only(self):
        table = self.toy_table(100)
        ds = split_dataset(table, seed=5)
        perm = np.random.default_rng(5).permutation(100)
        train_idx = perm[20:][16:]
        assert ds.norm.mins[0] == table.can_id[train_idx].min()
        assert ds.norm.maxs[0] == table.can_id[train_idx].max()

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            split_dataset(self.toy_table(0))

    def test_partitions_equal_encoding_each_taken_partition(self):
        table = self.toy_table(301, seed=6)
        ds = split_dataset(table, test_fraction=0.3, val_fraction=0.25, seed=9)
        perm = np.random.default_rng(9).permutation(301)
        test_idx, rest = perm[:90], perm[90:]
        val_idx, train_idx = rest[:52], rest[52:]
        params = fit_feature_params(table.take(train_idx))
        assert ds.norm.mins.tobytes() == params.mins.tobytes() and ds.norm.maxs.tobytes() == params.maxs.tobytes()
        for idx, x, y, kind in ((train_idx, ds.train_x, ds.train_y, ds.train_kind),
                                (val_idx, ds.val_x, ds.val_y, ds.val_kind),
                                (test_idx, ds.test_x, ds.test_y, ds.test_kind)):
            want_x, want_y = encode_table(table.take(idx), params)
            assert x.tobytes() == want_x.tobytes() and y.tobytes() == want_y.tobytes()
            assert kind.tobytes() == table.kind[idx].tobytes()

    # Ten rows whose identifiers and DLCs rise together and whose payloads alternate all-0 and all-255 bytes.
    # Split at fractions 0.5 and 0.5 with seed 19, the training rows are 3, 4 and 6, so test (rows 0 and 9) and
    # validation (rows 1 and 8) each hold rows below and above the training range.
    RAMP = RecordTable(
        timestamp=np.arange(10.0),
        can_id=1000 * np.arange(10),
        dlc=np.arange(10),
        payload=np.repeat(np.arange(10)[:, None] % 2 * 255, 8, axis=1).astype(np.uint8),
        data_value=np.zeros(10),
        label=np.arange(10, dtype=np.uint8) % 2,
        kind=np.zeros(10, dtype=np.uint8),
    )

    @staticmethod
    @st.composite
    def tables(draw):
        """Up to 40 rows; the identifier and the DLC each constant or drawn per row, payload bytes often 0 or 255."""
        n = draw(st.integers(1, 40))

        def column(top):
            if draw(st.booleans()):
                return np.full(n, draw(st.integers(0, top)))
            return draw(arrays(np.int64, n, elements=st.integers(0, top)))

        return RecordTable(
            timestamp=np.arange(float(n)),
            can_id=column(MAX_CAN_ID),
            dlc=column(15),
            payload=draw(arrays(np.uint8, (n, 8), elements=st.sampled_from((0, 255)) | st.integers(0, 255))),
            data_value=np.zeros(n),
            label=np.zeros(n, dtype=np.uint8),
            kind=np.zeros(n, dtype=np.uint8),
        )

    FRACTIONS = st.sampled_from((0.0, 0.1, 0.25, 0.5, 0.9))

    @settings(max_examples=300)
    @given(table=tables(), test_fraction=FRACTIONS, val_fraction=FRACTIONS, seed=st.integers(0, 2**32 - 1))
    @example(table=RAMP, test_fraction=0.5, val_fraction=0.5, seed=19)
    def test_encoding_equals_the_reference_bit_for_bit(self, table, test_fraction, val_fraction, seed):
        perm = np.random.default_rng(seed).permutation(len(table))
        n_test = math.floor(test_fraction * len(table))
        n_fit = n_test + math.floor(val_fraction * (len(table) - n_test))  # training rows start here
        if n_fit == len(table):
            with pytest.raises(EmptyColumn):
                split_dataset(table, test_fraction, val_fraction, seed)
            return
        params = fit_feature_params(table.take(perm[n_fit:]))
        x = scale_in_place(raw_features(table, perm), params)
        ds = split_dataset(table, test_fraction, val_fraction, seed)
        assert ds.norm.mins.tobytes() == params.mins.tobytes() and ds.norm.maxs.tobytes() == params.maxs.tobytes()
        assert ds.train_x.tobytes() == x[n_fit:].tobytes()
        assert ds.val_x.tobytes() == x[n_test:n_fit].tobytes()
        assert ds.test_x.tobytes() == x[:n_test].tobytes()

    def test_allocates_little_beyond_its_output(self):
        table = self.toy_table(50_000, seed=2)
        ds, peak = traced_peak(lambda: split_dataset(table, seed=2))
        output = sum(getattr(ds, name).nbytes for name in ("train_x", "train_y", "val_x", "val_y", "test_x",
                                                            "test_y", "train_kind", "val_kind", "test_kind"))
        assert output == 50_000 * (N_FEATURES * 8 + 2)
        # 1.108x: the buffer, the permutation and one gathered 8-byte column, 144 bytes a row against the output's
        # 130; two gathered columns alive at once read 1.17x
        assert peak <= 1.15 * output, (peak, output)


class TestReadKinds:
    PREFIXES = [["", "train,"], ["train,", "validation,", "test,"]]
    NEAR_MISSES = ["", "train", "bogus", "Normal", "train,bogus", "holdout,normal", " normal", "normal\rtrain,normal",
                   "caf\u00e9"]

    @settings(max_examples=200)
    @given(forms=st.sampled_from(PREFIXES), picks=st.lists(st.tuples(st.integers(0, 99), st.booleans())),
           last_end=st.sampled_from(["\n", "\r\n", ""]))
    def test_matches_a_line_by_line_reference(self, tmp_path_factory, forms, picks, last_end):
        # every line of either form or a near miss, each ended by \n or \r\n, against one lookup a line
        table = {prefix + line[:-1]: len(KIND_NAMES) * i + code
                 for i, prefix in enumerate(forms) for code, line in enumerate(KIND_LINES)}
        texts = list(table) + self.NEAR_MISSES
        lines = [texts[k % len(texts)] for k, _ in picks]
        ends = ["\r\n" if crlf else "\n" for _, crlf in picks]
        if lines:
            ends[-1] = last_end
        path = tmp_path_factory.mktemp("kinds") / "x.kinds"
        path.write_bytes("".join(map(str.__add__, lines, ends)).encode())
        if lines and lines[-1] + ends[-1] == "":  # nothing after the last line end is no line
            lines.pop()
        values, got = read_kinds(path, forms, NotText)
        assert values.dtype == np.uint8 and values.tolist() == [table.get(line, 255) for line in lines]
        assert got == [] if all(line in table for line in lines) else got in (lines, lines + [""])


class TestAllocationBudgets:
    """Traced peaks of the preparation stages on the desk log repeated, with 0.04% of its timestamps blank.

    Each bound is a multiple of the output plus a constant for the fixed part that small inputs show, set from the
    peaks quoted beside it with at least 9% headroom.
    """

    @pytest.mark.parametrize("rows", [20_000, 80_000])
    def test_parse_log(self, rows):
        # 4.72 MiB for 0.90 MiB of columns (5.26x) and 15.7 MiB for 3.59 MiB (4.37x); 43.1 MiB for 14.3 MiB (3.0x)
        # at 320,000 rows, where the bound has 9.6% headroom
        text = desk_log_bytes(rows)
        log, peak = traced_peak(lambda: parse_log(text))
        assert log.missing.sum() == rows // 2500
        assert peak <= 2.8 * array_bytes(log) + 7 * 2**20, (peak, array_bytes(log))

    @pytest.mark.parametrize("rows", [20_000, 80_000])
    def test_impute_missing_fieldmean(self, rows):
        # 0.41x and 0.40x the cleaned log, as at 320,000 rows
        log = parse_log(desk_log_bytes(rows))
        cleaned, peak = traced_peak(lambda: impute_missing(log, "fieldmean"))
        assert peak <= 0.45 * array_bytes(cleaned), (peak, array_bytes(cleaned))

    @pytest.mark.parametrize("rows", [20_000, 80_000])
    def test_record_table_from_raw(self, rows):
        # 2.17 MiB for a 0.80 MiB table and 4.35 MiB for 3.20 MiB; 17.4 MiB for 12.8 MiB (1.36x) at 320,000 rows
        log = impute_missing(parse_log(desk_log_bytes(rows)), "fieldmean")
        table, peak = traced_peak(lambda: RecordTable.from_raw(log))
        assert peak <= 1.45 * array_bytes(table) + 1.2 * 2**20, (peak, array_bytes(table))

    @pytest.mark.parametrize("rows", [20_000, 80_000])
    def test_save_dataset(self, tmp_path, rows):
        # 0.13 MiB for a 2.5 MiB file and 0.15 MiB for 9.8 MiB, as for 39 MiB at 320,000 rows: one block of
        # kinds lines at a time; 0.45 MiB for 9.8 MiB when each partition's codes were listed at once
        ds = split_dataset(RecordTable.from_raw(impute_missing(parse_log(desk_log_bytes(rows)), "fieldmean")), seed=3)
        _, peak = traced_peak(lambda: save_dataset(ds, tmp_path / "data.bin"))
        assert peak <= 0.17 * 2**20, peak

    @pytest.mark.parametrize("rows", [20_000, 80_000])
    @pytest.mark.parametrize("prefixes", [[""], ["train,", "validation,", "test,"]])
    def test_read_kinds(self, tmp_path, rows, prefixes):
        # 2.0-2.2 bytes a line beyond the file's bytes, for either form at either size: the codes as they grow
        codes = np.random.default_rng(5).integers(0, len(KIND_NAMES), rows).astype(np.uint8)
        path = tmp_path / "data.kinds"
        with open(path, "w") as fh:
            for i, prefix in enumerate(prefixes):
                write_kind_lines(codes[i :: len(prefixes)], fh, prefix)
        (values, lines), peak = traced_peak(lambda: read_kinds(path, prefixes, NotText))
        assert len(values) == rows and lines == []
        assert peak <= path.stat().st_size + 3 * rows, (peak, path.stat().st_size)


class TestContainerRoundTrip:
    def make_dataset(self):
        profile = SimProfile(
            ecus=(EcuSpec(0x130, 0.01, 8, "counter"), EcuSpec(0x2B0, 0.02, 8, "sensor")),
            duration=5.0,
            jitter=0.01,
            seed=3,
        )
        log = inject_attack(
            generate_traffic(profile), AttackSpec("flooding", 1.0, 2.0, 50.0, seed=4)
        )
        return prepare_records(log, seed=11, provenance="unit-test")

    def test_round_trip(self, tmp_path):
        ds = self.make_dataset()
        path = tmp_path / "data.bin"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.train_x, ds.train_x)
        assert np.array_equal(loaded.val_y, ds.val_y)
        assert np.array_equal(loaded.test_x, ds.test_x)
        assert np.array_equal(loaded.norm.mins, ds.norm.mins)
        assert loaded.provenance == "unit-test"
        assert loaded.seed == 11
        assert np.array_equal(loaded.test_kind, ds.test_kind)
        for got in (ds, loaded):
            for kind in (got.train_kind, got.val_kind, got.test_kind):
                assert kind.dtype == np.uint8
        assert set(ds.train_kind.tolist()) == {0, KIND_NAMES.index("flooding")}

    def test_load_allocates_under_twice_its_arrays(self, tmp_path):
        # 1.12x here and at 80,000 rows, 1.00x without the kinds sidecar: every array read once from the
        # file, and the sidecar's bytes; 1.66x when the sidecar was split into one string a line, 2.65x
        # when the file's bytes were held and every array copied out
        table = TestSplitDataset.toy_table(20_000, seed=3)
        table.kind = np.random.default_rng(3).integers(0, len(KIND_NAMES), 20_000).astype(np.uint8)
        save_dataset(split_dataset(table, seed=3), tmp_path / "data.bin")
        ds, peak = traced_peak(lambda: load_dataset(tmp_path / "data.bin"))
        arrays = sum(getattr(ds, name).nbytes for name in ("train_x", "train_y", "val_x", "val_y", "test_x",
                                                            "test_y", "train_kind", "val_kind", "test_kind"))
        assert arrays == 20_000 * (N_FEATURES * 8 + 2)
        assert peak <= 1.2 * arrays, (peak, arrays)

    def test_save_deterministic(self, tmp_path):
        ds = self.make_dataset()
        save_dataset(ds, tmp_path / "a.bin")
        save_dataset(ds, tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
        assert (tmp_path / "a.bin.manifest").read_text() == (tmp_path / "b.bin.manifest").read_text()

    def test_container_without_kinds_removes_an_earlier_sidecar(self, tmp_path):
        path = tmp_path / "data.bin"
        save_dataset(self.make_dataset(), path)
        ds = self.make_dataset()
        ds.train_kind = ds.val_kind = ds.test_kind = np.zeros(0, dtype=np.uint8)
        save_dataset(ds, path)
        assert not (tmp_path / "data.bin.kinds").exists() and not load_dataset(path).has_kinds()

    @pytest.mark.parametrize("provenance, fault", [("caf\udce9.csv", "is not UTF-8 text (surrogates not allowed)"),
                                                   ("a.csv\nseed=x", "holds a line break"),
                                                   ("a.csv\u2028b.csv", "holds a line break")])
    def test_provenance_that_is_not_one_utf8_line_is_refused_before_writing(self, tmp_path, provenance, fault):
        ds = self.make_dataset()
        ds.provenance = provenance
        with pytest.raises(NotText) as exc:
            save_dataset(ds, tmp_path / "data.bin")
        assert str(exc.value) == f"{tmp_path / 'data.bin.manifest'}: provenance {provenance!r} {fault}"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("provenance", ["caf\u00e9.csv;\u30ed\u30b0.csv", "a=b.csv", "", " x\t"])
    def test_provenance_round_trips(self, tmp_path, provenance):
        ds = self.make_dataset()
        ds.provenance = provenance
        save_dataset(ds, tmp_path / "data.bin")
        assert load_dataset(tmp_path / "data.bin").provenance == provenance

    def test_truncated_container_rejected(self, tmp_path):
        ds = self.make_dataset()
        path = tmp_path / "data.bin"
        save_dataset(ds, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-9])
        with pytest.raises(CorruptContainer):
            load_dataset(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "data.bin"
        path.write_bytes(b"NOTADATA" * 10)
        with pytest.raises(CorruptContainer):
            load_dataset(path)

    @pytest.mark.parametrize("bad_line", ["holdout,normal", "train", ""])
    def test_malformed_kinds_line_rejected(self, tmp_path, bad_line):
        path = tmp_path / "data.bin"
        save_dataset(self.make_dataset(), path)
        kinds = tmp_path / "data.bin.kinds"
        lines = kinds.read_text().splitlines()
        lines[0] = bad_line
        kinds.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorruptContainer):
            load_dataset(path)

    @pytest.mark.parametrize("kind", ["garbage_kind_name", "", "Flooding", "flood"])
    def test_unknown_kind_rejected(self, tmp_path, kind):
        path = tmp_path / "data.bin"
        save_dataset(self.make_dataset(), path)
        kinds = tmp_path / "data.bin.kinds"
        lines = kinds.read_text().splitlines()
        lines[0] = f"train,{kind}"
        kinds.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorruptContainer, match="unknown kind"):
            load_dataset(path)

    @pytest.mark.parametrize("sidecar", ["manifest", "kinds"])
    def test_non_utf8_sidecar_rejected(self, tmp_path, sidecar):
        path = tmp_path / "data.bin"
        save_dataset(self.make_dataset(), path)
        side = tmp_path / f"data.bin.{sidecar}"
        at = side.stat().st_size + len(b"source=")
        side.write_bytes(side.read_bytes() + b"source=\xff\xfe\n")
        with pytest.raises(CorruptContainer) as exc:
            load_dataset(path)
        assert str(exc.value) == f"{side}: not UTF-8 text (invalid start byte at byte {at})"

    def test_kinds_sidecar_of_the_wrong_length_rejected(self, tmp_path):
        ds = self.make_dataset()
        path = tmp_path / "data.bin"
        save_dataset(ds, path)
        kinds = tmp_path / "data.bin.kinds"
        kinds.write_text("".join(kinds.read_text().splitlines(keepends=True)[1:]))
        with pytest.raises(CorruptContainer) as exc:
            load_dataset(path)
        train, val, test = ds.sizes()
        assert str(exc.value) == f"{kinds}: {(train - 1, val, test)} kinds per partition, container holds {ds.sizes()}"

    @pytest.mark.parametrize("seed", ["abc", "", "1.5"])
    def test_non_integer_manifest_seed_rejected(self, tmp_path, seed):
        path = tmp_path / "data.bin"
        save_dataset(self.make_dataset(), path)
        manifest = tmp_path / "data.bin.manifest"
        manifest.write_text(manifest.read_text().replace("seed=11", f"seed={seed}"))
        with pytest.raises(CorruptContainer, match="not an integer"):
            load_dataset(path)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_manifest_seed_out_of_range_rejected(self, tmp_path, seed):
        path = tmp_path / "data.bin"
        save_dataset(self.make_dataset(), path)
        manifest = tmp_path / "data.bin.manifest"
        manifest.write_text(manifest.read_text().replace("seed=11", f"seed={seed}"))
        with pytest.raises(CorruptContainer) as exc:
            load_dataset(path)
        assert str(exc.value) == f"{manifest}: seed must be an integer in [0, 18446744073709551615], got {seed}"
        manifest.write_text(manifest.read_text().replace(f"seed={seed}", f"seed={2**64 - 1}"))
        assert load_dataset(path).seed == 2**64 - 1

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_is_not_saved(self, tmp_path, seed):
        ds = self.make_dataset()
        ds.seed = seed
        with pytest.raises(OutOfRange, match=re.escape(f"seed must be an integer in [0, {2**64 - 1}], got {seed}")):
            save_dataset(ds, tmp_path / "data.bin")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("edit", [lambda text: text.replace("\n", "\r\n"), lambda text: text.removesuffix("\n")])
    def test_kinds_line_ends_load_the_same_codes(self, tmp_path, edit):
        ds = self.make_dataset()
        path = tmp_path / "data.bin"
        save_dataset(ds, path)
        kinds = tmp_path / "data.bin.kinds"
        kinds.write_bytes(edit(kinds.read_text()).encode())
        loaded = load_dataset(path)
        for got, want in ((loaded.train_kind, ds.train_kind), (loaded.val_kind, ds.val_kind),
                          (loaded.test_kind, ds.test_kind)):
            assert got.dtype == np.uint8 and np.array_equal(got, want)

    @pytest.mark.parametrize("where", ["first", "last"])
    def test_kinds_line_ended_by_a_lone_carriage_return_rejected(self, tmp_path, where):
        # str.splitlines once took a lone carriage return for a line end; only a line feed ends a line now
        path = tmp_path / "data.bin"
        save_dataset(self.make_dataset(), path)
        kinds = tmp_path / "data.bin.kinds"
        lines = kinds.read_text().splitlines()
        if where == "first":
            lineno, got = 1, lines[0] + "\r" + lines[1]
            text = "\n".join([got] + lines[2:]) + "\n"
        else:
            lineno, got = len(lines), lines[-1] + "\r"
            text = "\n".join(lines[:-1] + [got])
        kinds.write_bytes(text.encode())
        with pytest.raises(CorruptContainer) as exc:
            load_dataset(path)
        assert str(exc.value) == f"{kinds} line {lineno}: expected train|validation|test,<kind>, got {got!r}"

    @staticmethod
    def label_offset(ds, partition):
        """Where ``partition``'s label bytes begin in the container."""
        offset = len(CONTAINER_MAGIC) + 32
        for name, count in zip(("train", "validation", "test"), ds.sizes()):
            if name == partition:
                return offset + 8 * N_FEATURES * count
            offset += (8 * N_FEATURES + 1) * count

    def test_short_or_long_container_rejected(self, tmp_path):
        path = tmp_path / "data.bin"
        save_dataset(self.make_dataset(), path)
        blob = path.read_bytes()
        for edited, message in [(blob[:-9], "unexpected end of file"), (blob + b"xyz", "3 trailing bytes"),
                                (blob[:5], "unexpected end of file"), (b"CANIDS2" + blob[7:], "no CANIDS1 magic")]:
            path.write_bytes(edited)
            with pytest.raises(CorruptContainer) as exc:
                load_dataset(path)
            assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize("partition", ["train", "validation", "test"])
    @pytest.mark.parametrize("label", [2, 255])
    def test_label_other_than_0_or_1_rejected(self, tmp_path, partition, label):
        ds = self.make_dataset()
        path = tmp_path / "data.bin"
        save_dataset(ds, path)
        blob = bytearray(path.read_bytes())
        blob[self.label_offset(ds, partition) + 3] = label
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptContainer) as exc:
            load_dataset(path)
        assert str(exc.value) == f"{path}: {partition} labels must be 0 or 1"

    @pytest.mark.parametrize("partition", ["train", "validation", "test"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1.5, -0.25, 1 + 2**-52])
    def test_feature_not_finite_or_outside_unit_interval_rejected(self, tmp_path, partition, value):
        ds = self.make_dataset()
        path = tmp_path / "data.bin"
        save_dataset(ds, path)
        blob = bytearray(path.read_bytes())
        at = self.label_offset(ds, partition) - 8  # the partition's last feature
        blob[at : at + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptContainer) as exc:
            load_dataset(path)
        assert str(exc.value) == f"{path}: {partition} features must be finite and lie in [0, 1]"

    @pytest.mark.parametrize("mins, maxs, message", [
        (5.0, 4.0, "feature max must be >= feature min"),
        (np.nan, 4.0, "feature mins and maxs must be finite"),
        (0.0, np.nan, "feature mins and maxs must be finite"),
    ])
    def test_bad_normalization_pair_rejected(self, tmp_path, mins, maxs, message):
        path = tmp_path / "data.bin"
        save_dataset(self.make_dataset(), path)
        blob = bytearray(path.read_bytes())
        blob[-16 * N_FEATURES : -16 * (N_FEATURES - 1)] = struct.pack("<2d", mins, maxs)
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptContainer) as exc:
            load_dataset(path)
        assert str(exc.value) == f"{path}: normalization pairs: {message}"

    @pytest.mark.parametrize("kinds", [np.zeros(3, dtype="<U8"), np.array([0, 9, 0], dtype=np.uint8),
                                       np.array([0, 1, 2])])
    def test_kinds_that_are_not_codes_rejected_before_writing(self, tmp_path, kinds):
        ds = self.make_dataset()
        ds.train_x, ds.train_y, ds.train_kind = ds.train_x[:3], ds.train_y[:3], kinds
        with pytest.raises(UnknownKind, match="kinds must be uint8 codes into KIND_NAMES"):
            save_dataset(ds, tmp_path / "data.bin")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("short", ["train_kind", "test_kind"])
    def test_kinds_one_short_rejected_before_writing(self, tmp_path, short):
        path = tmp_path / "data.bin"
        save_dataset(self.make_dataset(), path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        ds = self.make_dataset()
        setattr(ds, short, getattr(ds, short)[:-1])
        sizes = ds.sizes()
        counts = (len(ds.train_kind), len(ds.val_kind), len(ds.test_kind))
        with pytest.raises(LengthMismatch, match=rf"^{re.escape(f'{counts} kinds per partition for {sizes} rows')}$"):
            save_dataset(ds, path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


_RNG = np.random.default_rng(0)
_X, _Y = _RNG.uniform(size=(50, 16)), _RNG.integers(0, 2, 50).astype(np.uint8)
_TABLE = TestSplitDataset.toy_table(30)
_SAMPLE = _RNG.standard_normal(40)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: tree_fit(_X, _Y, max_depth=-1), "max_depth must be an integer in [0, inf), got -1"),
        (lambda: tree_fit(_X, _Y, min_leaf=0), "min_leaf must be an integer in [1, inf), got 0"),
        (lambda: tree_fit(_X, _Y, min_leaf=-3), "min_leaf must be an integer in [1, inf), got -3"),
        (lambda: knn_predict(knn_fit(_X, _Y), _X[:2], k=0), "k must be an integer in [1, inf), got 0"),
        (lambda: knn_predict(knn_fit(_X, _Y), _X[:2], k=2.0), "k must be an integer in [1, inf), got 2.0"),
        (lambda: TrainConfig(epochs=2000), "epochs must be an integer in [1, 1000], got 2000"),
        (lambda: TrainConfig(epochs=0), "epochs must be an integer in [1, 1000], got 0"),
        (lambda: TrainConfig(batch_size=0), "batch_size must be an integer in [1, inf), got 0"),
        (lambda: TrainConfig(patience=0), "patience must be an integer in [1, inf), got 0"),
        *((lambda lr=lr: TrainConfig(lr=lr), f"lr must be a number in [0, inf), got {lr!r}")
          for lr in (-1e-3, math.nan, math.inf, -math.inf)),
        (lambda: split_dataset(_TABLE, test_fraction=1.5), "test_fraction must be a number in [0, 1), got 1.5"),
        (lambda: split_dataset(_TABLE, val_fraction=math.nan), "val_fraction must be a number in [0, 1), got nan"),
        (lambda: rosner_outliers(_SAMPLE, 3, alpha=0), "alpha must be a number in (0, 1), got 0"),
        (lambda: rosner_outliers(_SAMPLE, 3, alpha=1.0), "alpha must be a number in (0, 1), got 1.0"),
        (lambda: rosner_outliers(_SAMPLE, 0), "max_outliers must be an integer in [1, inf), got 0"),
        (lambda: rosner_outliers(_SAMPLE, 39), "max_outliers must be an integer in [1, 38], got 39"),
        *((lambda build=build, bad=bad: build(bad), f"{name} must be a number in {span}, got {bad!r}")
          for name, span, build in [
              ("duration", "(0, inf)", lambda v: SimProfile(ecus=(), duration=v)),
              ("period", "(0, inf)", lambda v: EcuSpec(0x130, v)),
              ("start", "(-inf, inf)", lambda v: AttackSpec("flooding", v, 2.0, 10.0)),
              ("end", "(-inf, inf)", lambda v: AttackSpec("flooding", 1.0, v, 10.0)),
              ("rate", "(0, inf)", lambda v: AttackSpec("flooding", 1.0, 2.0, v)),
          ]
          for bad in (math.inf, -math.inf, math.nan)),
        (lambda: SimProfile(ecus=(), duration=1.0, jitter=0.5), "jitter must be a number in [0, 0.5), got 0.5"),
        *((lambda seed=seed: SimProfile(ecus=(), duration=1.0, seed=seed),
           f"seed must be an integer in [0, 18446744073709551615], got {seed!r}") for seed in (-1, 1.5, 2**64)),
        *((lambda seed=seed: AttackSpec("flooding", 1.0, 2.0, 10.0, seed=seed),
           f"seed must be an integer in [0, inf), got {seed!r}") for seed in (-3, 1.5)),
        (lambda: EcuSpec(0x800, 0.1), "identifier must be an integer in [0, 2047], got 2048"),
        (lambda: EcuSpec(0x130, 0.1, dlc=9), "dlc must be an integer in [0, 8], got 9"),
        (lambda: AttackSpec("spoofing", 1.0, 2.0, 3.0, (-1,)), "identifier must be an integer in [0, 2047], got -1"),
        (lambda: CanFrame(0x800), "identifier must be an integer in [0, 2047], got 2048"),
    ],
)
def test_library_refuses_a_value_outside_its_declared_range(call, message):
    """The library raises the words the command line prints for the same value (test_cli.TestNumericOptions),
    and the simulator those a profile or attack spec gets (test_cli.TestSpecErrors)."""
    with pytest.raises(OutOfRange) as exc:
        call()
    assert str(exc.value) == message
