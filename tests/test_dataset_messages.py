"""Every message a dataset file can draw from ``load_dataset``, pinned to its exact text.

Each case is one small file, written out below as a header and its
records, that breaks one rule; the table lists the exception class and the
whole message.  The last cases break more than one rule, and pin which
fault is reported: the earliest line's, and within one record the first in
the order the checks are listed in ``validate_dataset``.
"""

import json

import pytest

from negclap.corpus import DatasetParseError, DatasetValidationError, load_dataset

HEADER = {"format": "negclap-dataset", "version": 1, "n_tags": 3, "d_a": 2,
          "negators": ["not", "no"], "tags": ["rock", "jazz", "piano"], "split": "test"}
RECORDS = [
    {"id": 0, "tags": [0, 1], "features": [1.0, 0.5],
     "caption": [{"w": "a"}, {"t": 0, "neg": None}, {"w": "with"}, {"t": 1, "neg": None}]},
    {"id": 1, "tags": [2], "features": [0.5, 1.0],
     "caption": [{"t": 2, "neg": None}, {"w": "song"}]},
    {"id": 2, "tags": [1, 2], "features": [-1.0, 0.25],
     "caption": [{"t": 1, "neg": None}, {"w": "and"}, {"t": 2, "neg": "not"},
                 {"t": 2, "neg": None}]},
]


def text(header=None, records=None, **lines):
    """The file's text: ``header`` and ``records`` over the defaults, with
    ``line<N>=...`` replacing line N by raw text."""
    header = {**HEADER, **(header or {})}
    out = [json.dumps(header)]
    for i, record in enumerate(RECORDS):
        out.append(json.dumps({**record, **((records or {}).get(i, {}))}))
    for key, raw in lines.items():
        out[int(key[4:]) - 1] = raw
    return "\n".join(out) + "\n"


def without(record, key):
    return {k: v for k, v in RECORDS[record].items() if k != key}


def caption(record, index, token):
    """Record ``record``'s caption with token ``index`` replaced by ``token``."""
    tokens = list(RECORDS[record]["caption"])
    tokens[index] = token
    return {record: {"caption": tokens}}


P, V = DatasetParseError, DatasetValidationError
INT = "must be a JSON integer in [-2**63, 2**64), got"

CASES = {
    # reading a line
    "empty file": ("", P, "line 1: empty file"),
    "invalid utf-8": (text().replace('"song"', '"s\udcffng"'), P,
                      "line 3: invalid UTF-8: 'utf-8' codec can't decode byte 0xff in "
                      "position 90: invalid start byte"),
    "decode error": (text(line3='{"tags": [2,]}'), P,
                     "line 3, column 14: trailing comma is not allowed"),
    "header not an object": (text(line1="[1]"), P, "line 1: expected a JSON object"),
    "record not an object": (text(line2="7"), P, "line 2: expected a JSON object"),
    # the header
    "format marker": (text({"format": "x"}), P, "line 1: bad format marker 'x'"),
    "version": (text({"version": 2}), P, "line 1: unsupported version 2"),
    "header lacks a field": (text(line1=json.dumps({k: v for k, v in HEADER.items()
                                                    if k != "split"})),
                             P, "line 1: bad header: 'split'"),
    "tags not an array": (text({"tags": "rock"}), P,
                          "line 1: bad header: tags must be a JSON array, got 'rock'"),
    "tag not a string": (text({"tags": ["rock", 2, "piano"]}), P,
                         "line 1: bad header: tags[] must be a JSON string, got 2"),
    "negators not an array": (text({"negators": None}), P,
                              "line 1: bad header: negators must be a JSON array, got None"),
    "negator not a string": (text({"negators": ["not", 1.5]}), P,
                             "line 1: bad header: negators[] must be a JSON string, got 1.5"),
    "d_a not an integer": (text({"d_a": 2.0}), P, f"line 1: bad header: d_a {INT} 2.0"),
    "d_a below 1": (text({"d_a": 0}), P, "line 1: bad header: d_a must be >= 1, got 0"),
    "n_tags not an integer": (text({"n_tags": "3"}), P, f"line 1: bad header: n_tags {INT} '3'"),
    "split not a string": (text({"split": 1}), P,
                           "line 1: bad header: split must be a JSON string, got 1"),
    "n_tags against the tag list": (text({"n_tags": 4}), P,
                                    "line 1: header n_tags does not match tag list"),
    # a record's fields
    "record lacks id": (text(line2=json.dumps(without(0, "id"))), P,
                        "line 2: bad pair record: 'id'"),
    "record lacks features": (text(line2=json.dumps(without(0, "features"))), P,
                              "line 2: bad pair record: 'features'"),
    "record lacks tags": (text(line2=json.dumps(without(0, "tags"))), P,
                          "line 2: bad pair record: 'tags'"),
    "record lacks caption": (text(line2=json.dumps(without(0, "caption"))), P,
                             "line 2: bad pair record: 'caption'"),
    "id not an integer": (text(records={1: {"id": True}}), P,
                          f"line 3: bad pair record: id {INT} True"),
    "features not an array": (text(records={0: {"features": 1.0}}), P,
                              "line 2: bad pair record: features must be a JSON array, got 1.0"),
    "feature not a number": (text(records={0: {"features": [1.0, None]}}), P,
                             "line 2: bad pair record: features must hold only JSON numbers"),
    "tags of a record not an array": (text(records={0: {"tags": 0}}), P,
                                      "line 2: bad pair record: tags must be a JSON array, got 0"),
    "tag id not an integer": (text(records={0: {"tags": [0, 1.0]}}), P,
                              f"line 2: bad pair record: tags[] {INT} 1.0"),
    "caption not an array": (text(records={0: {"caption": "a rock"}}), P,
                             "line 2: bad pair record: caption must be a JSON array, "
                             "got 'a rock'"),
    "token not an object": (text(records=caption(0, 0, "a")), P,
                            "line 2: bad pair record: caption token must be a JSON object, "
                            "got 'a'"),
    "token of neither kind": (text(records=caption(0, 0, {"x": 1})), P,
                              "line 2: bad pair record: unrecognized caption token {'x': 1}"),
    "mention lacks neg": (text(records=caption(0, 1, {"t": 0})), P,
                          "line 2: bad pair record: 'neg'"),
    "mention tag not an integer": (text(records=caption(0, 1, {"t": False, "neg": None})), P,
                                   f"line 2: bad pair record: t {INT} False"),
    "negator of a mention not a string": (text(records=caption(0, 1, {"t": 0, "neg": 5})), P,
                                          "line 2: bad pair record: neg must be a JSON string, "
                                          "got 5"),
    "word not a string": (text(records=caption(1, 1, {"w": 7})), P,
                          "line 3: bad pair record: w must be a JSON string, got 7"),
    "feature width": (text(records={1: {"features": [0.5]}}), V,
                      "line 3: feature dimension (1,) != (2,)"),
    "no records": (json.dumps(HEADER) + "\n", V,
                   "no pair records after the header"),
    # the vocabulary and split
    "one tag": (text({"tags": ["rock"], "n_tags": 1}), V, "vocabulary must hold at least 2 tags"),
    "no negators": (text({"negators": []}), V, "vocabulary negators must be nonempty"),
    "negator that is a tag": (text({"negators": ["not", "jazz"]}), V,
                              "negators must not collide with tag surfaces"),
    "tag without a token": (text({"tags": ["rock", "...", "piano"]}), V,
                            "tag '...' tokenizes to nothing"),
    "tags that tokenize alike": (text({"tags": ["rock", "jazz", "Rock!"]}), V,
                                 "tag 'rock' and tag 'Rock!' both tokenize to ['rock']"),
    "split": (text({"split": "dev"}), V, "unknown split 'dev'"),
    # a record against the rules
    "duplicate id": (text(records={2: {"id": 0}}), V, "duplicate clip id 0"),
    "empty tag set": (text(records={1: {"tags": []}}), V, "clip 1: tag set must be nonempty"),
    "tag id out of range": (text(records={1: {"tags": [3]}}), V, "clip 1: tag id out of range"),
    "caption without a mention": (text(records={1: {"caption": [{"w": "song"}]}}), V,
                                  "clip 1: caption has no tag mention"),
    "mention out of range": (text(records=caption(1, 0, {"t": -1, "neg": None})), V,
                             "clip 1: caption tag id out of range"),
    "negator not in the vocabulary": (text(records=caption(1, 0, {"t": 2, "neg": "never"})), V,
                                      "clip 1: negator 'never' not in vocabulary"),
    "repeated plain mention": (text(records=caption(2, 2, {"t": 2, "neg": None})), V,
                               "clip 2: repeated non-negated tag mention"),
    "caption tags against clip tags": (text(records={0: {"tags": [0, 2]}}), V,
                                       "clip 0: non-negated caption tags != clip tags"),
    # more than one fault: the earliest line wins, whatever its check
    "earlier line wins": (text(records={0: {"tags": [0, 2]}, 2: {"id": 0, "tags": []}}), V,
                          "clip 0: non-negated caption tags != clip tags"),
    "earlier mention wins": (text(records={0: {"tags": [0, 2]},
                                           **caption(1, 0, {"t": 9, "neg": None})}), V,
                             "clip 0: non-negated caption tags != clip tags"),
    "bad mention before a later duplicate": (text(records={**caption(0, 1, {"t": 9, "neg": None}),
                                                           2: {"id": 0}}), V,
                                             "clip 0: caption tag id out of range"),
    "parse error after a rule broken": (text(records={0: {"tags": []}}, line4="{"), P,
                                        "line 4, column 2: unexpected end of data"),
    "width before a later parse error": (text(records={0: {"features": [1.0]}}, line3="["), V,
                                         "line 2: feature dimension (1,) != (2,)"),
    # ... and within a record, the first check in validate_dataset's order
    "tag range before mentions": (text(records={1: {"tags": [3], "caption": [{"w": "x"}]}}), V,
                                  "clip 1: tag id out of range"),
    "first bad mention wins": (text(records={1: {"caption": [{"t": 2, "neg": "never"},
                                                             {"t": 7, "neg": None}]}}), V,
                               "clip 1: negator 'never' not in vocabulary"),
    "bad mention before a repeat": (text(records={1: {"caption": [
        {"t": 2, "neg": None}, {"t": 2, "neg": None}, {"t": 2, "neg": "never"}]}}), V,
        "clip 1: negator 'never' not in vocabulary"),
    "a bad mention is a mention": (text(records={1: {"caption": [{"w": "x"},
                                                                 {"t": 9, "neg": "no"}]}}), V,
                                   "clip 1: caption tag id out of range"),
    "duplicate id before its tags": (text(records={2: {"id": 1, "tags": []}}), V,
                                     "duplicate clip id 1"),
}


def test_the_unbroken_file_loads(tmp_path):
    path = tmp_path / "ok.jsonl"
    path.write_text(text(), encoding="utf-8")
    assert len(load_dataset(path)) == len(RECORDS)


@pytest.mark.parametrize("case", CASES)
def test_each_fault_has_its_message(tmp_path, case):
    content, error, message = CASES[case]
    path = tmp_path / "bad.jsonl"
    path.write_bytes(content.encode("utf-8", "surrogateescape"))
    with pytest.raises(DatasetParseError if error is P else DatasetValidationError) as err:
        load_dataset(path)
    assert type(err.value) is error
    assert str(err.value) == f"{path}: {message}"
