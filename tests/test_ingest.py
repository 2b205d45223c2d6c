import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from canids.canbus import AttackSpec, EcuSpec, SimProfile, TrafficRecord, generate_traffic, inject_attack
from canids.ingest import (
    AllRowsMissing,
    CorruptContainer,
    EmptyColumn,
    EmptyInput,
    IdOutOfRange,
    InvalidHexDigit,
    LengthMismatch,
    MAX_PAYLOAD_BYTES,
    PayloadTooLong,
    RawRecord,
    RecordTable,
    TooFewValues,
    UnknownKind,
    ZeroVariance,
    apply_minmax,
    correlation_matrix,
    dec_to_hex,
    encode_table,
    fit_feature_params,
    fit_minmax,
    hex_to_dec,
    impute_missing,
    load_dataset,
    parse_log,
    pearson,
    prepare_records,
    rosner_outliers,
    save_dataset,
    split_dataset,
)

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


class TestParseLog:
    def test_direct_field_mapping(self):
        rec = parse_log("0.123,0130,2,AB CD,0")[0]
        assert rec == RawRecord(0.123, "0130", 2, "AB CD", "0")

    def test_missing_dlc_sets_flag(self):
        rec = parse_log("0.5,0130,,AB CD,1")[0]
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
        rec = parse_log(f"0.0,0100,19,{long_field},0")[0]
        assert rec.data_hex == long_field

    def test_order_preserved(self):
        text = "\n".join(f"{i}.0,0100,1,0{i},0" for i in range(5))
        assert [r.timestamp for r in parse_log(text)] == [float(i) for i in range(5)]

    def test_fields_held_in_canonical_form(self):
        rec = parse_log(" 0.5 , 0x1a3 ,2, b  c ,Attack")[0]
        assert rec == RawRecord(0.5, "1A3", 2, "0B 0C", "1")

    @pytest.mark.parametrize("cell", ["FFFFFFFFFFFFFFFFFFFFFF", "20000000", "0x20000000"])
    def test_id_above_29_bits_is_missing(self, cell):
        rec = parse_log(f"0.1,{cell},1,0A,0")[0]
        assert rec.missing_fields() == frozenset({"can_id_hex"})
        assert parse_log("0.1,0x1fffffff,1,0A,0")[0].can_id_hex == "1FFFFFFF"

    def test_payload_or_dlc_above_64_bytes_is_missing(self):
        at_bound = " ".join(["FF"] * MAX_PAYLOAD_BYTES)
        assert parse_log(f"0.0,0100,64,{at_bound},0")[0].missing_fields() == frozenset()
        for cell in (at_bound + " FF", at_bound.lower() + " ff"):  # canonical and not
            assert parse_log(f"0.0,0100,8,{cell},0")[0].missing_fields() == frozenset({"data_hex"})
        assert parse_log("0.0,0100,65,0A,0")[0].missing_fields() == frozenset({"dlc"})

    def test_dlc_above_bound_imputed_from_observed_mean(self):
        records = parse_log("0.0,0130,2,0A 0B,0\n1.0,0130,1000000,ZZ,0")
        assert records[1].missing_fields() == frozenset({"dlc", "data_hex"})
        imputed = impute_missing(records, "fieldmean")[1]
        assert (imputed.dlc, imputed.data_hex) == (2, "0A 0B")

    def test_open_file_parses_like_its_text(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_bytes(
            b"Timestamp,CAN_ID,DLC,Data_Field,Label\r\n0.1,0130,2,AB CD,0\r\n\r\n"
            b"0.2,02B0,,ZZ,Attack\r\n0.3,0x1a3,1,0f,1\r\n"
        )
        with open(path, newline="") as fh:
            from_file = parse_log(fh)
        assert from_file == parse_log(path.read_text())
        assert [r.timestamp for r in from_file] == [0.1, 0.2, 0.3]

    @pytest.mark.parametrize("cell", ["+130", "-1", "1_30", "\u0661\u0663\u0660", "0x0x12", "0x 12"])
    def test_signed_or_non_ascii_id_is_missing(self, cell):
        assert parse_log(f"0.1,{cell},1,0A,0")[0].missing_fields() == frozenset({"can_id_hex"})

    @pytest.mark.parametrize("cell", ["-1", "+F", "0A -1", "-0", "\u0663", "\u0661\u0663"])
    def test_signed_or_non_ascii_data_is_missing(self, cell):
        assert parse_log(f"0.1,0100,1,{cell},0")[0].missing_fields() == frozenset({"data_hex"})

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])
    def test_non_finite_timestamp_is_missing(self, cell):
        records = parse_log(f"1.0,0100,1,0A,0\n{cell},0100,1,0B,0\n3.0,0100,1,0C,1")
        assert records[1].missing_fields() == frozenset({"timestamp"})
        assert [r.timestamp for r in impute_missing(records, "droprow")] == [1.0, 3.0]
        assert impute_missing(records, "fieldmean")[1].timestamp == 2.0


class TestHexConversion:
    def test_58b(self):
        assert hex_to_dec("58B") == 1419

    def test_f41(self):
        assert hex_to_dec("F41") == 3905

    def test_spaced_payload_matches_oracle(self):
        text = "80 7F 00 73 20 00 0A A1"
        assert hex_to_dec(text) == hex_to_dec_oracle(text)

    def test_invalid_digit(self):
        with pytest.raises(InvalidHexDigit):
            hex_to_dec("0xZZ")
        with pytest.raises(InvalidHexDigit):
            hex_to_dec("  ")

    @given(st.integers(0, 2**152 - 1))
    def test_round_trip_identity(self, value):
        assert hex_to_dec(dec_to_hex(value)) == value

    @given(st.integers(0, 2**152 - 1))
    def test_matches_positional_oracle(self, value):
        assert hex_to_dec(dec_to_hex(value)) == hex_to_dec_oracle(dec_to_hex(value))


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
        assert impute_missing(records, "droprow") == records
        assert impute_missing(records, "fieldmean") == records

    def test_droprow_count(self):
        rows = ["%d.0,0100,1,0A,0" % i for i in range(7)]
        rows += ["7.0,0100,,0A,0", "8.0,,1,0B,0", "9.0,0100,1,,0"]
        records = parse_log("\n".join(rows))
        assert len(impute_missing(records, "droprow")) == 7

    def test_fieldmean_dlc(self):
        records = parse_log("1.0,0100,8,01 02 03 04 05 06 07 08,0\n2.0,0100,,01,0\n3.0,0100,4,01 02 03 04,0")
        filled = impute_missing(records, "fieldmean")
        assert filled[1].dlc == 6
        assert not any(r.missing_fields() for r in filled)

    def test_fieldmean_all_missing_column(self):
        records = [RawRecord(None, "0100", 1, "0A", "0"), RawRecord(None, "0100", 1, "0B", "1")]
        with pytest.raises(AllRowsMissing):
            impute_missing(records, "fieldmean")

    def test_fieldmean_needs_payload_means_only_for_positive_dlc(self):
        # no row has a payload, but the one missing it has DLC 0
        records = parse_log("0.1,0100,0,,0\n0.2,0100,0,ZZ,1")
        assert impute_missing(records, "fieldmean")[1].data_hex == ""
        with pytest.raises(AllRowsMissing, match="Data_Field"):
            impute_missing(parse_log("0.1,0100,0,,0\n0.2,0100,1,ZZ,1"), "fieldmean")

    def test_fieldmean_clean_rows_are_the_same_objects(self):
        records = parse_log("1.0,0100,1,0A,0\n,0100,1,0B,0\n3.0,0100,1,0C,1")
        filled = impute_missing(records, "fieldmean")
        assert filled[0] is records[0] and filled[2] is records[2]
        assert filled[1] is not records[1] and filled[1].timestamp == 2.0

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


class TestMinMax:
    def test_bounds_and_midpoint(self):
        params = fit_minmax(np.array([[0.0], [10.0]]))
        assert apply_minmax(np.array([0.0]), params)[0] == 0.0
        assert apply_minmax(np.array([10.0]), params)[0] == 1.0
        assert apply_minmax(np.array([5.0]), params)[0] == 0.5

    def test_degenerate_feature_maps_to_zero(self):
        params = fit_minmax(np.array([[7.0], [7.0]]))
        assert apply_minmax(np.array([7.0]), params)[0] == 0.0

    def test_out_of_range_clamped(self):
        params = fit_minmax(np.array([[0.0], [10.0]]))
        assert apply_minmax(np.array([-5.0]), params)[0] == 0.0
        assert apply_minmax(np.array([15.0]), params)[0] == 1.0

    def test_empty_fit(self):
        with pytest.raises(EmptyColumn):
            fit_minmax(np.empty((0, 3)))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    def test_apply_fit_in_unit_interval(self, values):
        col = np.asarray(values)[:, None]
        params = fit_minmax(col)
        out = apply_minmax(col, params)
        assert np.all((out >= 0.0) & (out <= 1.0))
        if col.max() > col.min():
            assert out.min() == 0.0 and out.max() == 1.0


class TestEncode:
    @pytest.fixture
    def params(self):
        table = RecordTable.from_traffic(
            [
                TrafficRecord(0.0, 0x100, 8, bytes(range(8)), 0),
                TrafficRecord(1.0, 0x700, 0, b"", 1),
            ]
        )
        return fit_feature_params(table)

    def test_minimum_id_empty_payload(self, params):
        x, y = encode_table(RecordTable.from_traffic([TrafficRecord(0.0, 0x100, 0, b"", 0)]), params)
        assert x[0, 0] == 0.0
        assert np.all(x[0, 2:] == 0.0)
        assert y.tolist() == [0]

    def test_full_byte_scales_to_one(self, params):
        x, _ = encode_table(RecordTable.from_traffic([TrafficRecord(0.0, 0x100, 1, b"\xff", 0)]), params)
        assert x[0, 2] == 1.0

    def test_shape_and_range(self, params):
        rng = np.random.default_rng(2)
        for _ in range(20):
            dlc = int(rng.integers(0, 9))
            rec = TrafficRecord(
                0.0,
                int(rng.integers(0x100, 0x701)),
                dlc,
                bytes(int(b) for b in rng.integers(0, 256, dlc)),
                int(rng.integers(0, 2)),
            )
            x, _ = encode_table(RecordTable.from_traffic([rec]), params)
            assert x.shape == (1, 16)
            assert np.all((x >= 0.0) & (x <= 1.0))

    def test_unknown_sidecar_kind_rejected(self):
        records = [RawRecord(0.0, "0100", 1, "11", "0"), RawRecord(0.1, "0100", 1, "11", "1")]
        assert RecordTable.from_raw(records, ["normal", "fuzzing"]).kind.tolist() == ["", "fuzzing"]
        with pytest.raises(UnknownKind):
            RecordTable.from_raw(records, ["normal", "garbage_kind_name"])

    def test_id_above_29_bits_rejected(self):
        with pytest.raises(IdOutOfRange):
            RecordTable.from_raw([RawRecord(0.0, "FFFFFFFFFFFFFFFFFFFFFF", 1, "0A", "0")])
        assert RecordTable.from_raw([RawRecord(0.0, "1FFFFFFF", 1, "0A", "0")]).can_id[0] == 0x1FFFFFFF

    def test_data_field_above_64_bytes_rejected(self):
        with pytest.raises(PayloadTooLong):
            RecordTable.from_raw([RawRecord(0.0, "0100", 8, " ".join(["FF"] * 200), "0")])
        table = RecordTable.from_raw([RawRecord(0.0, "0100", 64, " ".join(["FF"] * 64), "0")])
        assert table.data_value[0] == float(2**512 - 1)

    @pytest.mark.parametrize("data_hex", ["-1", "+F", "0A ZZ", "A"])
    def test_non_hex_data_field_rejected(self, data_hex):
        with pytest.raises(InvalidHexDigit):
            RecordTable.from_raw([RawRecord(0.0, "0100", 1, data_hex, "0")])

    def test_payload_and_data_value_from_hex_bytes(self):
        table = RecordTable.from_raw(
            [RawRecord(0.0, "0100", 3, "0A 00 FF", "1"), RawRecord(0.1, "0200", 0, "", "0")]
        )
        assert table.payload.tolist() == [[10, 0, 255, 0, 0, 0, 0, 0], [0] * 8]
        assert table.data_value.tolist() == [float(hex_to_dec("0A 00 FF")), 0.0]
        assert table.label.tolist() == [1, 0]

    def test_oversized_payload_truncated(self, params):
        table = RecordTable.from_raw(
            [RawRecord(0.0, "0100", 10, " ".join(["11"] * 10), "0")]
        )
        x, _ = encode_table(table, params)
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
            kind=np.array([""] * n, dtype="<U8"),
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

    def test_save_deterministic(self, tmp_path):
        ds = self.make_dataset()
        save_dataset(ds, tmp_path / "a.bin")
        save_dataset(ds, tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
        assert (tmp_path / "a.bin.manifest").read_text() == (tmp_path / "b.bin.manifest").read_text()

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
        side.write_bytes(side.read_bytes() + b"source=\xff\xfe\n")
        with pytest.raises(CorruptContainer, match="not valid text"):
            load_dataset(path)

    @pytest.mark.parametrize("seed", ["abc", "", "1.5"])
    def test_non_integer_manifest_seed_rejected(self, tmp_path, seed):
        path = tmp_path / "data.bin"
        save_dataset(self.make_dataset(), path)
        manifest = tmp_path / "data.bin.manifest"
        manifest.write_text(manifest.read_text().replace("seed=11", f"seed={seed}"))
        with pytest.raises(CorruptContainer, match="not an integer"):
            load_dataset(path)
