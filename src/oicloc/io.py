"""File formats: CAS CSV, manifests, predictions."""
from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import numpy as np

from .cas import Cas, GroundTruthSegment, VideoRecord
from .errors import InputError
from .selection import Prediction


def write_cas_csv(path: str | Path, cas: Cas) -> None:
    """One ``snippet,class_1..class_K`` row per snippet, each value as its repr,
    with the CSV dialect's ``\\r\\n`` line ends (no value needs quoting)."""
    lines = ["snippet," + ",".join(f"class_{k}" for k in range(1, cas.num_classes + 1))]
    lines += [f"{t}," + ",".join(map(repr, row))
              for t, row in enumerate(cas.act.T.tolist(), start=1)]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def read_cas_csv(path: str | Path) -> Cas:
    """Read a snippet,class_1..class_K CSV into a K x T CAS.

    A file of canonical unquoted rows is parsed in bulk; any other input
    (quotes, a bare ``\r``, mixed line ends, a blank line, a wrong index, a
    bad cell or value, no data rows, a line the csv module could refuse) goes
    to the line-by-line reader, which accepts or rejects it and words every
    error. Both convert cells with ``float``, so the two give the same bits.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError):
        return _read_cas_lines(path)
    act = _parse_cas_bulk(text)
    if act is not None:
        try:
            return Cas(act)
        except InputError:
            pass
    return _read_cas_lines(path)


def _parse_cas_bulk(text: str) -> np.ndarray | None:
    """The K x T matrix of a canonical unquoted CAS CSV, or None for any other
    text (a quote fails the header check or ``int``/``float``)."""
    crs = text.count("\r")
    lines = text.split("\r\n" if crs else "\n")
    if crs and not crs == text.count("\n") == len(lines) - 1:
        return None  # a bare \r or \n
    if lines[-1] == "":
        lines.pop()
    if len(lines) < 2 or max(map(len, lines)) >= csv.field_size_limit():
        return None
    K = lines[0].count(",")
    if lines[0] != ",".join(["snippet", *(f"class_{k}" for k in range(1, K + 1))]):
        return None
    rows = lines[1:]
    if [row.count(",") for row in rows] != [K] * len(rows):
        return None
    cells = ",".join(rows).split(",")
    index = cells[:: K + 1]
    del cells[:: K + 1]
    try:
        if list(map(int, index)) != list(range(1, len(rows) + 1)):
            return None
        values = np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:
        return None
    return values.reshape(len(rows), K).T  # the layout np.array(rows).T gives


def _read_cas_lines(path: str | Path) -> Cas:
    """Line-by-line reader: the one that words every CAS CSV error."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (OSError, ValueError) as exc:  # missing file, bad path, not UTF-8
        raise InputError(f"{path}: {exc}") from None
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise InputError(f"{path}: {exc}") from None
    if not rows:
        raise InputError(f"{path}: empty CSV")
    header = rows[0]
    if header[:1] != ["snippet"] or any(
        name != f"class_{i + 1}" for i, name in enumerate(header[1:])
    ):
        raise InputError(f"{path}: expected header snippet,class_1,...,class_K")
    K = len(header) - 1
    values = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != K + 1:
            raise InputError(f"{path}:{lineno}: expected {K + 1} columns")
        try:
            index, cells = int(row[0]), [float(v) for v in row[1:]]
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from None
        if index != lineno - 1:
            raise InputError(f"{path}:{lineno}: snippet indices must run 1..T")
        values.append(cells)
    try:
        return Cas(np.array(values).T)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


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


def _is_segment(g) -> bool:
    return (isinstance(g, dict) and _is_int(g.get("class"))
            and _is_finite(g.get("start_s")) and _is_finite(g.get("end_s")))


# manifest entry key -> (check of its JSON value, what the check asks for)
_ENTRY_TYPES = {
    "video_id": (lambda v: isinstance(v, str), "a string"),
    "cas_path": (lambda v: isinstance(v, str), "a string"),
    "labels": (lambda v: isinstance(v, list) and all(map(_is_int, v)), "a list of integers"),
    "fps": (lambda v: _is_finite(v) and v > 0, "a positive finite number"),
    "gt": (lambda v: isinstance(v, list) and all(map(_is_segment, v)),
           "a list of objects with integer class and finite start_s, end_s"),
}


def read_manifest(path: str | Path) -> list[VideoRecord]:
    path = Path(path)
    try:
        entries = json.loads(path.read_bytes())
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    if not isinstance(entries, list):
        raise InputError(f"{path}: manifest must be a JSON array")
    videos = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise InputError(f"{path}: manifest entry {i} must be a JSON object")
        extra = set(entry) - set(_ENTRY_TYPES)
        if extra:
            raise InputError(f"{path}: unknown manifest keys {sorted(extra)}")
        for key, (valid, kind) in _ENTRY_TYPES.items():
            if key in entry and not valid(entry[key]):
                raise InputError(f"{path}: manifest entry {i}: {key!r} must be {kind}")
        for key in ("video_id", "cas_path", "labels", "fps"):
            if key not in entry:
                raise InputError(f"{path}: manifest entry {i} lacks key {key!r}")
        cas = read_cas_csv(path.parent / entry["cas_path"])
        try:
            gt = None
            if "gt" in entry:
                gt = tuple(
                    GroundTruthSegment(g["class"], g["start_s"], g["end_s"]) for g in entry["gt"]
                )
            videos.append(VideoRecord(entry["video_id"], cas, tuple(entry["labels"]),
                                      entry["fps"], gt))
        except InputError as exc:  # labels outside 1..K, ground truth with start >= end
            raise InputError(f"{path}: manifest entry {i}: {exc}") from None
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


# prediction line key -> (check of its JSON value, what the check asks for)
_PREDICTION_TYPES = {
    "video_id": (lambda v: isinstance(v, str), "a string"),
    "class": (_is_int, "an integer"),
    "start_s": (_is_number, "a number"),
    "end_s": (_is_number, "a number"),
    "score": (_is_number, "a number"),
}


def read_predictions_jsonl(path: str | Path) -> list[Prediction]:
    preds = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
                raise InputError(f"{path}:{lineno}: bad prediction line: {exc}") from None
            if not isinstance(obj, dict):
                raise InputError(f"{path}:{lineno}: prediction must be a JSON object")
            for key, (valid, kind) in _PREDICTION_TYPES.items():
                if not valid(obj.get(key)):
                    raise InputError(f"{path}:{lineno}: {key!r} must be {kind}")
            for key in ("start_s", "end_s", "score"):
                if not _is_finite(obj[key]):
                    raise InputError(f"{path}:{lineno}: {key!r} must be finite")
            if obj["start_s"] > obj["end_s"]:
                raise InputError(f"{path}:{lineno}: 'start_s' must not exceed 'end_s'")
            preds.append(Prediction(obj["class"], obj["start_s"], obj["end_s"], obj["score"],
                                    video_id=obj["video_id"]))
    return preds
