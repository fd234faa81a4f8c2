import json

import numpy as np
import pytest

from pwdrecon.core import (
    ModelKind,
    OutputMode,
    PreprocessedRecord,
    RecordManifest,
    WaveConfig,
    WindowSet,
    Polarity,
    from_json_dict,
    read_json,
    to_json_dict,
    write_json,
)
from pwdrecon.harness.experiment import ExperimentConfig, GridFile
from pwdrecon.harness.io import PreprocessedIndexEntry
from pwdrecon.harness.synth import SyntheticSpec


def test_preprocessed_record_streams_share_one_length():
    def rec(fecg, env):
        return PreprocessedRecord("r", fecg, env, WaveConfig.EA_PLUS,
                                  Polarity.POSITIVE)

    r = rec(np.arange(10), np.zeros((2, 10)))
    assert r.fecg.dtype == r.env.dtype == np.float64
    with pytest.raises(ValueError):
        r.env[0, 0] = 1.0
    for fecg, env in ((np.zeros(10), np.zeros((2, 9))),   # lengths differ
                      (np.zeros(10), np.zeros((1, 10))),  # one envelope
                      (np.zeros((1, 10)), np.zeros((2, 10)))):
        with pytest.raises(ValueError):
            rec(fecg, env)


def test_window_set_shape_checks():
    def ws(x, y, n=3):
        return WindowSet(x=x, y=y, t_start=np.arange(n) * 0.5,
                         record_id=["r"] * n)

    with pytest.raises(ValueError):  # lengths differ
        ws(np.zeros((3, 8)), np.zeros((3, 1, 7)))
    with pytest.raises(ValueError):  # 3 target channels
        ws(np.zeros((3, 8)), np.zeros((3, 3, 8)))
    with pytest.raises(ValueError):  # row counts differ
        ws(np.zeros((3, 8)), np.zeros((2, 2, 8)))
    with pytest.raises(ValueError):  # one window, not a set of windows
        ws(np.zeros(8), np.zeros((2, 8)))
    with pytest.raises(ValueError):  # t_start and record_id per row
        ws(np.zeros((2, 8)), np.zeros((2, 2, 8)))
    w = ws(np.zeros((3, 8)), np.zeros((3, 2, 8)))
    assert len(w) == 3 and w.y.shape == (3, 2, 8)
    assert list(w.record_id) == ["r"] * 3
    with pytest.raises(ValueError):
        w.x[0, 0] = 1.0


def test_manifest_rejects_bad_indices():
    kwargs = dict(record_id="r", channel_paths=("a", "b", "c"),
                  image_path="i.pgm", aecg_fs=2048.0,
                  wave_config=WaveConfig.EA_PLUS, image_baseline_row=50,
                  image_columns_per_second=100.0)
    with pytest.raises(ValueError):
        RecordManifest(bipolar_channel_indices=(0, 0, 1), **kwargs)
    with pytest.raises(ValueError):
        RecordManifest(bipolar_channel_indices=(0, 1, 5), **kwargs)
    m = RecordManifest(bipolar_channel_indices=(2, 0, 1), **kwargs)
    assert m.bipolar_channel_indices == (2, 0, 1)


CODEC_CASES = [
    ExperimentConfig(window_s=0.75, model=ModelKind.LASSO,
                     output_mode=OutputMode.PCA_SINGLE, seed=3,
                     net_channels=(2, 4, 8), kernel_size=5),
    SyntheticSpec(n_records=2, fetal_bpm=(130.0, 140.0), fecg_polarity=-1,
                  wave_config=WaveConfig.EA_MINUS),
    RecordManifest(record_id="r1", channel_paths=("a.f32", "b.f32", "c.f32"),
                   image_path="r1.pgm", aecg_fs=500.0,
                   bipolar_channel_indices=(2, 0, 1),
                   wave_config=WaveConfig.GROUP, image_baseline_row=7,
                   image_columns_per_second=90.0, aux={"n_samples": 64}),
]


@pytest.mark.parametrize("obj", CODEC_CASES,
                         ids=[type(o).__name__ for o in CODEC_CASES])
def test_json_codec_roundtrip(obj):
    d = json.loads(json.dumps(to_json_dict(obj)))
    assert list(d) == list(obj.__dataclass_fields__)
    assert from_json_dict(type(obj), d) == obj


def test_json_codec_normalises_numbers():
    c = from_json_dict(ExperimentConfig, {"window_s": 2, "epochs": 100.0})
    assert repr(c.window_s) == "2.0" and repr(c.epochs) == "100"
    assert to_json_dict(c)["window_s"] == 2.0


@pytest.mark.parametrize("d, message", [
    ({"modle": "Ridge"}, "ExperimentConfig: unknown field 'modle'"),
    ({"model": "Ridgee"}, "ExperimentConfig.model: 'Ridgee'"),
    ({"epochs": 2.5}, "ExperimentConfig.epochs: expected int, got 2.5"),
    ({"epochs": True}, "ExperimentConfig.epochs: expected int, got True"),
    ({"window_s": "fast"},
     "ExperimentConfig.window_s: expected float, got 'fast'"),
    ({"net_channels": [2, 4]}, "ExperimentConfig.net_channels: expected 3"),
    ({"net_channels": 8}, "ExperimentConfig.net_channels: expected a list"),
])
def test_json_codec_names_the_bad_field(d, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        from_json_dict(ExperimentConfig, d)


def test_json_codec_requires_fields_without_defaults():
    d = to_json_dict(CODEC_CASES[2])
    del d["aux"]  # a field with a default may be left out
    assert from_json_dict(RecordManifest, d).aux == {}
    del d["image_path"]
    with pytest.raises(ValueError,
                       match="^RecordManifest: missing field 'image_path'"):
        from_json_dict(RecordManifest, d)
    with pytest.raises(ValueError, match="^RecordManifest: expected a JSON"):
        from_json_dict(RecordManifest, ["r1"])


FILE_CASES = [
    ([CODEC_CASES[2], CODEC_CASES[2]], tuple[RecordManifest, ...]),
    ([PreprocessedIndexEntry(record_id="r1", fs=284.0, n_samples=568,
                             wave_config=WaveConfig.EA_PLUS,
                             polarity=Polarity.NEGATIVE)],
     tuple[PreprocessedIndexEntry, ...]),
    (CODEC_CASES[0], ExperimentConfig),
]


@pytest.mark.parametrize("value, tp", FILE_CASES,
                         ids=["manifests", "preprocessed", "config"])
def test_json_file_codec_roundtrip(value, tp, tmp_path):
    path = tmp_path / "v.json"
    write_json(str(path), value)
    # oracle: each dataclass as its to_json_dict, dumped with indent=1
    obj = ([to_json_dict(v) for v in value] if isinstance(value, list)
           else to_json_dict(value))
    assert path.read_text() == json.dumps(obj, indent=1)
    back = read_json(str(path), tp)
    assert back == (tuple(value) if isinstance(value, list) else value)


@pytest.mark.parametrize("text, tp, message", [
    ("[7]", tuple[RecordManifest, ...],
     "RecordManifest: expected a JSON object, got 7"),
    ('{"grids": ["table0"]}', GridFile,
     "GridFile.grids: unknown grid 'table0'"),
    ('{"grids": [], "base": {"epochs": 0}}', GridFile,
     "GridFile.base: ExperimentConfig.epochs: must be >= 1"),
], ids=["item-not-an-object", "post-init", "nested-field"])
def test_read_json_names_the_file(text, tp, message, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        read_json(str(path), tp)
    assert str(exc.value).startswith(f"{path}: ")
    assert message in str(exc.value)
