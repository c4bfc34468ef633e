"""Golden behavioural fingerprints: the modelled outputs must not move.

Every fingerprint in :mod:`tests.golden.fingerprints` is recomputed and
diffed field by field against ``golden.json``.  Floats compare exactly:
a simulator rewrite that claims to preserve behaviour must reproduce
the old values bit for bit.

Regenerating: when a change moves the modelled behaviour on purpose,
rewrite the file with

    REPRO_REGOLDEN=1 PYTHONPATH=src python -m pytest -q tests/golden

and list every moved field, with the reason, in CHANGES.md.
"""

from __future__ import annotations

import json
import os

import pytest

from tests.golden.fingerprints import FINGERPRINTS

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden.json")
REGOLDEN = os.environ.get("REPRO_REGOLDEN") == "1"


def _load() -> dict:
    with open(GOLDEN) as handle:
        return json.load(handle)


def _store(name: str, fields: dict) -> None:
    golden = _load() if os.path.exists(GOLDEN) else {}
    golden[name] = fields
    with open(GOLDEN, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


def diff(expected: dict, actual: dict) -> list[str]:
    """One line per field that is missing, extra or moved."""
    lines = []
    for field in sorted(set(expected) | set(actual)):
        if field not in actual:
            lines.append(f"{field}: missing (golden {expected[field]!r})")
        elif field not in expected:
            lines.append(f"{field}: new field {actual[field]!r}")
        elif expected[field] != actual[field]:
            lines.append(f"{field}: golden {expected[field]!r} "
                         f"!= now {actual[field]!r}")
    return lines


@pytest.mark.parametrize("name", sorted(FINGERPRINTS))
def test_fingerprint_matches_golden(name):
    # JSON round trip: tuples become lists, exactly as stored.
    actual = json.loads(json.dumps(FINGERPRINTS[name]()))
    if REGOLDEN:
        _store(name, actual)
        return
    expected = _load().get(name)
    assert expected is not None, (
        f"no golden values for {name!r}; regenerate with REPRO_REGOLDEN=1")
    moved = diff(expected, actual)
    assert not moved, f"{name} fingerprint moved:\n" + "\n".join(moved)


def test_diff_reports_every_moved_field():
    expected = {"a": 1.0, "b": 2, "c": "x"}
    actual = {"a": 1.0000000000000002, "b": 2, "d": 3}
    assert diff(expected, actual) == [
        "a: golden 1.0 != now 1.0000000000000002",
        "c: missing (golden 'x')",
        "d: new field 3",
    ]
