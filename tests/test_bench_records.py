"""Every committed benchmark record (`BENCH_*.json` at the repository root)
parses and names what it measured, against what, where and how: a
performance claim counts only with such a record."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
REQUIRED = ("change", "parent_commit", "machine", "command", "end_to_end")


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_parses_and_has_the_required_fields(path):
    record = json.loads(path.read_text())
    assert isinstance(record, dict)
    assert [key for key in REQUIRED if not record.get(key)] == []
