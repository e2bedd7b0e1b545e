import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seizureformer import kv
from seizureformer.cli import RunConfig, _flat_keys
from seizureformer.model import ModelConfig
from seizureformer.train import REFERENCE_BATCH_SIZE, TrainConfig

RUN_CONFIGS = {
    "defaults": RunConfig(),
    "reference_preset": RunConfig(
        model=ModelConfig.reference_preset(), train=TrainConfig(batch_size=REFERENCE_BATCH_SIZE)
    ),
}

VALUES = {
    bool: st.booleans(),
    int: st.integers(-(10**12), 10**12),
    float: st.floats(allow_nan=False, allow_infinity=False),
    tuple: st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=5).map(tuple),
    str: st.text(st.characters(whitelist_categories=("Ll", "Lu", "Nd")), max_size=12),
}


def round_trip(key, kind, value):
    back = kv.parse_value(key, kv.format_value(value), kind)
    assert back == value
    assert type(back) is type(value)


class TestFieldTypes:
    def test_model_config(self):
        kinds = kv.field_types(ModelConfig)
        assert kinds["lookback"] is int
        assert kinds["dropout_rate"] is float
        assert kinds["kernel_sizes"] is tuple and kinds["cvt_kernel"] is tuple
        assert kinds["se_reduction"] is int  # `int | None` parses as int
        assert kinds["use_se"] is bool

    def test_every_run_config_key_has_a_text_form(self):
        keys = _flat_keys(RunConfig())
        assert {kind for _, kind in keys.values()} <= set(VALUES)
        assert {"label_fraction", "horizons", "weight_decay", "use_cvt"} <= set(keys)


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(RUN_CONFIGS))
    def test_every_key_at_preset(self, name):
        for key, (owner, kind) in _flat_keys(RUN_CONFIGS[name]).items():
            round_trip(key, kind, getattr(owner, key))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_any_value_of_any_key(self, data):
        keys = _flat_keys(RunConfig())
        key = data.draw(st.sampled_from(sorted(keys)))
        kind = keys[key][1]
        round_trip(key, kind, data.draw(VALUES[kind]))


class TestStrictParsing:
    @pytest.mark.parametrize("raw", ["yes", "True", "1", ""])
    def test_bool_is_true_or_false(self, raw):
        with pytest.raises(ValueError, match="use_se expects true or false"):
            kv.parse_value("use_se", raw, bool)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e999", "abc"])
    def test_float_must_be_finite(self, raw):
        with pytest.raises(ValueError, match="label_fraction expects a finite float"):
            kv.parse_value("label_fraction", raw, float)

    @pytest.mark.parametrize("raw", ["3,,5", "3,5,", "", "3.0", "a"])
    def test_tuple_is_comma_separated_ints(self, raw):
        with pytest.raises(ValueError, match="kernel_sizes expects comma-separated ints"):
            kv.parse_value("kernel_sizes", raw, tuple)

    @pytest.mark.parametrize("raw", ["3.0", "true", ""])
    def test_int(self, raw):
        with pytest.raises(ValueError, match="lookback expects int"):
            kv.parse_value("lookback", raw, int)

    def test_surrounding_space_ignored(self):
        assert kv.parse_value("kernel_sizes", " 3,5 ", tuple) == (3, 5)


class TestFormat:
    def test_forms(self):
        assert kv.format_value(True) == "true" and kv.format_value(np.bool_(False)) == "false"
        assert kv.format_value(0.1) == "0.1" and kv.format_value(np.float64(1 / 3)) == repr(1 / 3)
        assert kv.format_value((1, 3, 7)) == "1,3,7"
        assert kv.format_value(np.int64(5)) == "5" and kv.format_value("adam") == "adam"


class TestAtomicWrite:
    def test_failed_write_leaves_existing_file(self, tmp_path):
        path = tmp_path / "manifest.txt"
        kv.write_manifest(path, {"a": 1})
        with pytest.raises(UnicodeEncodeError):
            kv.write_manifest(path, {"a": 2, "b": "\ud800"})  # not encodable as UTF-8
        assert path.read_text() == "a=1\n"
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.txt"]

    def test_replaces_existing_file(self, tmp_path):
        path = tmp_path / "manifest.txt"
        kv.write_manifest(path, {"a": 1})
        kv.write_manifest(path, {"a": 2})
        assert path.read_text() == "a=2\n"
