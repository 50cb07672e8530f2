"""Fuzz tests for the readers and the library's entry points: any input gives
a valid object or an InputError (which ``oicloc`` reports on one line before
exiting 2)."""
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import cas_csv_reference, checkpoint_v2, checkpoint_v3

from oicloc import baselines, io
from oicloc.boundary import AnchorConfig
from oicloc.cas import Cas, GroundTruthSegment, VideoRecord
from oicloc.config import RunConfig, load_config
from oicloc.errors import InputError
from oicloc.regressor import NetworkB
from oicloc.selection import Prediction
from oicloc.synth import SynthSpec, synth_corpus

FUZZ = settings(max_examples=80, deadline=None)


def json_values(ints=st.integers()):
    """Arbitrary JSON documents, NaN and infinities included."""
    scalars = st.none() | st.booleans() | ints | st.floats() | st.text(max_size=6)
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=6), inner, max_size=3),
        max_leaves=8,
    )


def mutations(base: dict, values):
    """``base`` with one key replaced by an arbitrary value, or dropped."""
    keys = st.sampled_from(sorted(base))
    replaced = st.builds(lambda k, v: {**base, k: v}, keys, values)
    dropped = keys.map(lambda k: {kk: v for kk, v in base.items() if kk != k})
    return replaced | dropped


def repeated_keys(base: dict, values):
    """JSON text of ``base`` with one of its keys written again, after the others."""
    return st.builds(lambda k, v: f"{json.dumps(base)[:-1]}, {json.dumps(k)}: {json.dumps(v)}}}",
                     st.sampled_from(sorted(base)), values)


def documents(base: dict, values=json_values()):
    """JSON text of a mutated ``base``, of ``base`` with a repeated key, of any
    JSON value, or raw bytes."""
    as_text = st.one_of(mutations(base, values), values).map(json.dumps)
    return (as_text | repeated_keys(base, values)).map(str.encode) | st.binary(max_size=60)


def read(reader, path, data: bytes):
    """Write ``data`` to ``path`` and read it; None if it raised an InputError."""
    path.write_bytes(data)
    try:
        return reader(path)
    except InputError:
        return None


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "v.csv").write_text("snippet,class_1,class_2\n1,0.5,0.1\n2,0.9,0.0\n")
    return root


ENTRY = {"video_id": "v", "cas_path": "v.csv", "labels": [1], "fps": 30.0,
         "gt": [{"class": 1, "start_s": 0.0, "end_s": 0.5}]}
CAS_PATHS = st.sampled_from(["v.csv", "missing.csv", "", ".", "v\x00.csv"])


@FUZZ
@given(entry=st.one_of(mutations(ENTRY, json_values()),
                       st.builds(lambda p: {**ENTRY, "cas_path": p}, CAS_PATHS)))
def test_read_manifest(workdir, entry):
    videos = read(io.read_manifest, workdir / "manifest.json", json.dumps([entry]).encode())
    if videos is not None:
        assert len(videos) == 1 and isinstance(videos[0], VideoRecord)
        assert math.isfinite(videos[0].fps) and videos[0].fps > 0


@FUZZ
@given(data=st.binary(max_size=60) | json_values().map(lambda d: json.dumps(d).encode()))
def test_read_manifest_any_document(workdir, data):
    read(io.read_manifest, workdir / "manifest.json", data)


# spellings that replace one cell or one snippet index of a well-formed file:
# some read as the same value, some are out of range, some leave the dialect
CELLS = ["1", "-0", "1e-3", " 0.5", "0.5 ", "1_0", "0_5", "+0.5", "nan", "inf", "1e400", "2",
         "", "x", '"0.5"', '"', "\r", "0.5\r", "0.5\n", "0.5,0.5"]
INDICES = ["+{}", "0{}", "{}.0", " {}", "{}_0", "{}0", "x", '"{}"', ""]


@st.composite
def cas_csv_texts(draw):
    """A well-formed CAS CSV, or one with a few faults in or out of the dialect."""
    K, T = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    grid = [["snippet", *(f"class_{k}" for k in range(1, K + 1))]] + [
        [str(t), *draw(st.lists(st.sampled_from(["0.5", "0", "1", "0.25", "0.1"]),
                                min_size=K, max_size=K))]
        for t in range(1, T + 1)
    ]
    for _ in range(draw(st.integers(0, 2))):
        r = draw(st.integers(0, T))
        c = draw(st.integers(0, K))
        if c == 0 and r > 0:
            grid[r][0] = draw(st.sampled_from(INDICES)).format(r)
        else:
            grid[r][c] = draw(st.sampled_from(CELLS + (["class_9", '"class_1"'] if r == 0 else [])))
    lines = [",".join(row) for row in grid]
    if draw(st.integers(0, 5)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), "")  # a blank line
    end = draw(st.sampled_from(["\n", "\r\n", "\n", "\r\n", "\r"]))
    return (end.join(lines) + draw(st.sampled_from(["", end, end + end]))).encode()


@FUZZ
@given(data=st.binary(max_size=60) | cas_csv_texts())
@example(data=b"snippet,class_1,class_2\n1,0.5\r,0.5\n")  # a bare \r inside a row
@example(data=b"snippet,class_1\r\n1,0.5\r\r\n")  # a bare \r before the line end
@example(data=b"snippet,class_1\r\n1,0.5\n\r\n")  # a bare \n in a \r\n file
@example(data=b"snippet,class_1\r1,0.5\r")  # bare \r line ends throughout
@example(data=b'snippet,class_1\n1,"0.5"\n')  # quoted cells
@example(data=b'snippet,class_1,class_2\n1,"0.5,0.5"\n')
@example(data=b"snippet,class_1\n1,0.5\n\n")  # trailing and leading blank lines
@example(data=b"snippet,class_1\n\n1,0.5\n")
@example(data=b"snippet,class_1\n+1, 0.5\n02,0.5 \n3_0,0.5\n")  # index and value spellings
@example(data=b"snippet,class_1\n1, 0.5\n2,0.5 \n3,1_0e-1\n")  # values float() reads
@example(data=b"snippet,class_1\n1.0,0.5\n")
@example(data=b"snippet,class_1\n1,0.5,2\n0.5\n")  # rows of wrong widths, right total
@example(data=b"snippet,class_1\n")  # header only
@example(data=b"snippet\n1\n")  # no class column
@example(data=b"snippet,class_1\n1,1_0\n")  # reads, but out of [0, 1]
@example(data=b"snippet,class_1\n1,0.5\xff\n")  # not UTF-8
def test_read_cas_csv(workdir, data):
    """Text in the dialect reads as the reference parser's matrix, held as the
    interior of a C-contiguous padded copy; any other bytes end in one
    InputError line that names the file."""
    path = workdir / "cas.csv"
    path.write_bytes(data)
    want = cas_csv_reference(data)
    try:
        cas = io.read_cas_csv(path)
    except InputError as exc:
        assert want is None
        assert str(exc).startswith(f"{path}:") and "\n" not in str(exc)
        return
    assert want is not None and cas.padded.flags.c_contiguous and cas.act.base is cas.padded
    assert cas.act.shape == want.shape and cas.act.tobytes() == want.tobytes()


CONFIG = {"version": 1, "profile": "synthetic", "manifest": "m.json", "anchors": [2, 4],
          "alpha": 0.25, "lr": 1e-3, "epochs": 2, "feature_dim": 8}


@FUZZ
@given(data=documents(CONFIG))
def test_load_config(workdir, data):
    cfg = read(load_config, workdir / "run.json", data)
    if cfg is not None:
        assert isinstance(cfg, RunConfig)


PREDICTION = {"video_id": "a", "class": 1, "start_s": 0.0, "end_s": 1.0, "score": 1.5}


@FUZZ
@given(lines=st.lists(
    mutations(PREDICTION, st.floats()).map(lambda d: json.dumps(d).encode())
    | documents(PREDICTION), max_size=3))
def test_read_predictions_jsonl(workdir, lines):
    preds = read(io.read_predictions_jsonl, workdir / "p.jsonl", b"\n".join(lines))
    for p in preds or ():
        assert isinstance(p, Prediction)
        assert all(map(math.isfinite, (p.start_s, p.end_s, p.score)))
        assert p.start_s <= p.end_s


SPEC = {"num_classes": 2, "t_range": [30, 45], "instances_range": [1, 2], "noise_amp": 0.02}


@FUZZ
@given(value=st.one_of(mutations(SPEC, json_values()), json_values()))
def test_synth_spec_from_dict(value):
    try:
        assert isinstance(SynthSpec.from_dict(value), SynthSpec)
    except InputError:
        pass


CHECKPOINT = checkpoint_v2(NetworkB(feature_dim=2, anchor_count=1, hidden=3))


@FUZZ
@given(data=documents(CHECKPOINT))
def test_checkpoint_load(workdir, data):
    """A version-2 document, mutated or not, any other JSON value and short
    raw bytes all end in one InputError: only version 3 is read."""
    assert read(NetworkB.load, workdir / "ckpt.json", data) is None


HEADER, PAYLOAD = checkpoint_v3(NetworkB(feature_dim=2, anchor_count=1, hidden=3))
V3_FILE = json.dumps(HEADER).encode() + b"\n" + PAYLOAD


@FUZZ
@given(data=st.binary(max_size=60)
       | st.integers(0, len(V3_FILE)).map(lambda n: V3_FILE[:n])
       | st.builds(lambda at, raw: V3_FILE[:at] + raw + V3_FILE[at + len(raw):],
                   st.integers(0, len(V3_FILE)), st.binary(min_size=1, max_size=8))
       | st.builds(lambda header, payload: header.encode() + b"\n" + payload,
                   mutations(HEADER, json_values()).map(json.dumps)
                   | repeated_keys(HEADER, json_values()),
                   st.sampled_from([PAYLOAD, PAYLOAD[:-8], PAYLOAD + bytes(8), b""])))
def test_checkpoint_v3_load(workdir, data):
    net = read(NetworkB.load, workdir / "ckpt.ckpt", data)
    if net is not None:
        assert isinstance(net, NetworkB) and isinstance(net.meta, dict)


CAS = Cas(np.full((2, 6), 0.5))
# each entry point, valid arguments for it, and the ones replaced (None: all)
ENTRY_POINTS = [
    (GroundTruthSegment, {"class_id": 1, "start_s": 0.0, "end_s": 1.0, "video_id": "v"}, None),
    (VideoRecord, {"video_id": "v", "cas": CAS, "labels": (1,), "fps": 30.0,
                   "gt": (GroundTruthSegment(1, 0.0, 1.0),)}, None),
    (AnchorConfig, {"scales": (1, 2)}, None),
    (Cas, {"act": np.full((2, 6), 0.5)}, None),
    (baselines.threshold_localize, {"cas": CAS, "k": 1, "tau": 0.5}, ("cas", "k", "tau")),
    (baselines.oic_selection_enumerate, {"cas": CAS, "k": 1}, ("cas", "k")),
    (synth_corpus, {"spec": SynthSpec(**SPEC), "seed": 0, "count": 1}, ("count",)),
]
ODD_VALUES = [None, "1", True, 1.5, math.nan, math.inf, 10**400, [], {}, np.zeros(2)]


def test_library_entry_points():
    """Each argument of each entry point replaced by each odd value, the
    others valid: every call returns or raises an InputError."""
    escaped = []
    for call, kwargs, keys in ENTRY_POINTS:
        for key, value in itertools.product(keys or kwargs, ODD_VALUES):
            try:
                call(**{**kwargs, key: value})
            except InputError:
                pass
            except Exception as exc:
                escaped.append(f"{call.__name__}({key}={value!r}): {exc!r}")
    assert not escaped
