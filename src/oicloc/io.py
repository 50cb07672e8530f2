"""File formats: CAS CSV, manifests, predictions, and the one JSON reader."""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from .cas import Cas, GroundTruthSegment, VideoRecord
from .errors import InputError, naming
from .selection import Prediction


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise InputError(f"repeated key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def parse_json(data: bytes) -> object:
    """The JSON document in the UTF-8 bytes ``data``. Anything else (not UTF-8,
    not JSON, nested too deep, a key repeated in one object) is an InputError."""
    try:
        return _DECODER.decode(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # a huge integer literal is a ValueError too
        raise InputError(str(exc)) from None


def check_object(obj, what: str, rules: dict, required=frozenset()) -> dict:
    """``obj`` if it is a JSON object whose keys all have a rule in ``rules`` (key ->
    (check of its value, what the check asks for)), include the set ``required`` and
    hold values that pass their checks; else an InputError naming ``what`` and the key."""
    if not isinstance(obj, dict):
        raise InputError(f"{what} must be a JSON object")
    if not obj.keys() <= rules.keys():
        raise InputError(f"{what}: unknown keys {sorted(obj.keys() - rules.keys())}")
    if not obj.keys() >= required:
        raise InputError(f"{what}: lacks keys {sorted(required - obj.keys())}")
    for key, value in obj.items():
        check, kind = rules[key]
        if not check(value):
            raise InputError(f"{what}: {key!r} must be {kind}")
    return obj


def _cas_header(K: int) -> str:
    """The header line of a K-class CAS CSV: ``snippet,class_1,...,class_K``."""
    return ",".join(["snippet", *(f"class_{k}" for k in range(1, K + 1))])


def write_cas_csv(path: str | Path, cas: Cas) -> None:
    """The header, then one ``t,v_1,...,v_K`` row per snippet t = 1..T, each
    value as its repr, every line ended by ``\\r\\n``."""
    lines = [_cas_header(cas.num_classes)]
    lines += [f"{t}," + ",".join(map(repr, row))
              for t, row in enumerate(cas.act.T.tolist(), start=1)]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def read_cas_csv(path: str | Path) -> Cas:
    """Read a CAS CSV into a K x T CAS. The one dialect is what
    :func:`write_cas_csv` writes: its header, then the row ``t,v_1,...,v_K``
    for each t = 1..T (the index spelled ``str(t)``, each value as ``float``
    reads it), every line ended by ``\\r\\n`` or every line by ``\\n``, the
    last line end optional. Anything else (quoted cells, blank lines, a bare
    ``\\r``) fails as one InputError naming the file, and the line if any."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:  # missing file, bad path, not UTF-8
        raise InputError(f"{path}: {exc}") from None
    crs = text.count("\r")
    if crs and not crs == text.count("\n") == text.count("\r\n"):
        raise InputError(f"{path}: mixed line ends")
    quote = text.find('"')
    if quote >= 0:
        lineno = text.count("\n", 0, quote) + 1
        raise InputError(f"{path}:{lineno}: quoted cell")
    lines = text.split("\r\n" if crs else "\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise InputError(f"{path}: empty CSV")
    K = lines[0].count(",")
    if lines[0] != _cas_header(K):
        raise InputError(f"{path}: expected header snippet,class_1,...,class_K")
    cells = []
    for t, line in enumerate(lines[1:], start=1):  # snippet t is on line t + 1
        row = line.split(",")
        if len(row) != K + 1:
            raise InputError(f"{path}:{t + 1}: expected {K + 1} columns")
        if row[0] != str(t):
            raise InputError(f"{path}:{t + 1}: snippet indices must run 1..T")
        cells += row[1:]
    try:
        values = np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:
        for i, cell in enumerate(cells):  # find the refused cell, K to a line
            try:
                float(cell)
            except ValueError as exc:
                raise InputError(f"{path}:{i // K + 2}: {exc}") from None
    with naming(path):  # a value outside [0, 1], no data rows
        return Cas(values.reshape(len(lines) - 1, K).T)


def write_manifest(path: str | Path, videos: list[VideoRecord], cas_dir: str = ".") -> None:
    """Write the JSON manifest and one CAS CSV per video next to it."""
    path = Path(path)
    base = path.parent / cas_dir
    base.mkdir(parents=True, exist_ok=True)
    entries = []
    for v in videos:
        cas_path = f"{cas_dir}/{v.video_id}.csv" if cas_dir != "." else f"{v.video_id}.csv"
        write_cas_csv(path.parent / cas_path, v.cas)
        entry = {
            "video_id": v.video_id,
            "cas_path": cas_path,
            "labels": list(v.labels),
            "fps": v.fps,
        }
        if v.gt is not None:
            entry["gt"] = [
                {"class": g.class_id, "start_s": g.start_s, "end_s": g.end_s} for g in v.gt
            ]
        entries.append(entry)
    path.write_text(json.dumps(entries, indent=1))


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    """A JSON number that converts to a finite float (NaN, inf and huge integers do not)."""
    return _is_number(v) and abs(v) <= sys.float_info.max


# shared rules: (check of a JSON value, what the check asks for)
STRING = (lambda v: isinstance(v, str), "a string")
FINITE = (_is_finite, "a finite number")
POSITIVE_FINITE = (lambda v: _is_finite(v) and v > 0, "a positive finite number")
POSITIVE_INTEGER = (lambda v: _is_int(v) and v >= 1, "a positive integer")
UNIT = (lambda v: _is_number(v) and 0 <= v <= 1, "a finite number in [0, 1]")  # not NaN

_ENTRY_RULES = {
    "video_id": STRING,
    "cas_path": STRING,
    "labels": (lambda v: isinstance(v, list) and all(map(_is_int, v)), "a list of integers"),
    "fps": POSITIVE_FINITE,
    "gt": (lambda v: isinstance(v, list), "a list"),
}
_ENTRY_REQUIRED = _ENTRY_RULES.keys() - {"gt"}
_SEGMENT_RULES = {"class": (_is_int, "an integer"), "start_s": FINITE, "end_s": FINITE}


def read_manifest(path: str | Path) -> list[VideoRecord]:
    path = Path(path)
    videos, first_entry = [], {}  # video id -> index of the entry that holds it
    with naming(path):
        entries = parse_json(path.read_bytes())
        if not isinstance(entries, list):
            raise InputError("manifest must be a JSON array")
        for i, entry in enumerate(entries):
            check_object(entry, f"manifest entry {i}", _ENTRY_RULES, _ENTRY_REQUIRED)
            for j, segment in enumerate(entry.get("gt", ())):
                check_object(segment, f"manifest entry {i}: gt[{j}]", _SEGMENT_RULES,
                             _SEGMENT_RULES.keys())
            j = first_entry.setdefault(entry["video_id"], i)
            if j != i:
                raise InputError(f"manifest entries {j} and {i} share video id "
                                 f"{entry['video_id']!r}")
    for i, entry in enumerate(entries):
        cas = read_cas_csv(path.parent / entry["cas_path"])
        with naming(f"{path}: manifest entry {i}"):  # labels outside 1..K, start >= end
            gt = None
            if "gt" in entry:
                gt = tuple(
                    GroundTruthSegment(g["class"], g["start_s"], g["end_s"]) for g in entry["gt"]
                )
            videos.append(VideoRecord(entry["video_id"], cas, tuple(entry["labels"]),
                                      entry["fps"], gt))
    return videos


def write_predictions_jsonl(path: str | Path, preds: list[Prediction]) -> None:
    """JSON lines sorted by descending score."""
    ordered = sorted(preds, key=lambda p: (-p.score, p.video_id, p.start_s, p.class_id))
    with open(path, "w") as fh:
        for p in ordered:
            fh.write(
                json.dumps(
                    {
                        "video_id": p.video_id,
                        "class": p.class_id,
                        "start_s": p.start_s,
                        "end_s": p.end_s,
                        "score": p.score,
                    }
                )
                + "\n"
            )


_PREDICTION_RULES = {**_SEGMENT_RULES, "video_id": STRING, "score": FINITE}


def read_predictions_jsonl(path: str | Path) -> list[Prediction]:
    preds = []
    with open(path, "rb") as fh:
        # not errors.naming: lineno is bound in the loop, and a with per line costs ~1 us
        try:
            for lineno, raw in enumerate(fh, start=1):
                if not raw.strip():
                    continue
                obj = check_object(parse_json(raw), "prediction", _PREDICTION_RULES,
                                   _PREDICTION_RULES.keys())
                if obj["start_s"] > obj["end_s"]:
                    raise InputError("'start_s' must not exceed 'end_s'")
                preds.append(Prediction(obj["class"], obj["start_s"], obj["end_s"], obj["score"],
                                        video_id=obj["video_id"]))
        except InputError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from None
    return preds
