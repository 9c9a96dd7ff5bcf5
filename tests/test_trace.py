"""The trace emitter: the one place that reads STEINER3_TRACE."""

from pathlib import Path

import pytest

import steiner3
from steiner3.trace import emit, tracing


@pytest.mark.parametrize("value", [None, "0", "true", " 1"], ids=repr)
def test_only_exactly_1_traces(value, monkeypatch, capsys):
    if value is None:
        monkeypatch.delenv("STEINER3_TRACE", raising=False)
    else:
        monkeypatch.setenv("STEINER3_TRACE", value)
    assert not tracing()
    emit("test.stage", count=1)
    assert capsys.readouterr() == ("", "")


def test_one_line_stage_first_then_counts_in_call_order(monkeypatch, capsys):
    monkeypatch.setenv("STEINER3_TRACE", "1")
    assert tracing()
    emit("test.stage", zeta=3, alpha=[1, 2], mode="full")
    out, err = capsys.readouterr()
    assert out == ""
    assert err == '{"stage": "test.stage", "zeta": 3, "alpha": [1, 2], "mode": "full"}\n'


def test_read_at_call_time(monkeypatch, capsys):
    monkeypatch.setenv("STEINER3_TRACE", "1")
    emit("test.on")
    monkeypatch.setenv("STEINER3_TRACE", "0")
    emit("test.off")
    assert capsys.readouterr().err == '{"stage": "test.on"}\n'


def test_only_the_emitter_reads_the_variable():
    package = Path(steiner3.__file__).parent
    readers = sorted(p.name for p in package.glob("*.py") if "STEINER3_TRACE" in p.read_text())
    assert readers == ["trace.py"]
