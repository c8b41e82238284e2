"""``clio events --persisted`` and ``clio health --show-log`` read a store's
persisted ``/events`` and ``/alerts`` logs.  A store without the log gets
the usual message; a log holding a record that does not decode is an error
naming that log — never an empty history or a "healthy" verdict."""

import io
import json

import pytest

from repro.cli import main


@pytest.fixture
def store(tmp_path):
    path = str(tmp_path / "store")
    assert main(["init", path, "--block-size", "512", "--degree", "8"]) == 0
    return path


def append_lines(monkeypatch, store, path, lines):
    """``clio create STORE PATH`` then ``clio append --stdin --lines``."""
    assert main(["create", store, path]) == 0
    fake_stdin = type(
        "Stdin", (), {"buffer": io.BytesIO("\n".join(lines).encode())}
    )()
    monkeypatch.setattr("sys.stdin", fake_stdin)
    assert main(["append", store, path, "--stdin", "--lines"]) == 0


def exit_message(argv) -> str:
    """Run ``argv``; it must exit non-zero, and the message is returned."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    code = exc.value.code
    assert code not in (None, 0)
    return str(code)


GOOD_EVENT = json.dumps(
    {"seq": 0, "ts_us": 5, "kind": "demo.event", "attrs": {"n": 1}},
    sort_keys=True,
)
GOOD_ALERT = json.dumps(
    {
        "rule": "demo_rule",
        "ts_us": 7,
        "severity": "warning",
        "value": 2.0,
        "bound": 1.0,
        "message": "demo",
    },
    sort_keys=True,
)


class TestEventsPersisted:
    def test_store_without_events_log_keeps_its_message(self, store, capsys):
        capsys.readouterr()
        assert main(["events", store, "--persisted"]) == 1
        assert "no persisted /events log in this store" in capsys.readouterr().err

    def test_decodable_events_are_listed(self, store, capsys, monkeypatch):
        append_lines(monkeypatch, store, "/events", [GOOD_EVENT])
        capsys.readouterr()
        assert main(["events", store, "--persisted"]) == 0
        assert "demo.event n=1" in capsys.readouterr().out

    @pytest.mark.parametrize("bad", ["not json", "42", '{"seq": 1}'])
    def test_undecodable_event_is_an_error_naming_the_log(
        self, store, capsys, monkeypatch, bad
    ):
        append_lines(monkeypatch, store, "/events", [GOOD_EVENT, bad])
        message = exit_message(["events", store, "--persisted"])
        assert "undecodable record #1 in /events" in message
        assert "no persisted" not in capsys.readouterr().err


class TestHealthShowLog:
    def test_store_without_alerts_log_is_healthy(self, store, capsys):
        capsys.readouterr()
        assert main(["health", store, "--show-log"]) == 0
        out = capsys.readouterr().out
        assert "(history)" not in out
        assert "healthy" in out

    def test_decodable_alerts_are_shown(self, store, capsys, monkeypatch):
        append_lines(monkeypatch, store, "/alerts", [GOOD_ALERT])
        capsys.readouterr()
        assert main(["health", store, "--show-log"]) == 0
        assert "(history)" in capsys.readouterr().out

    def test_undecodable_alert_is_an_error_naming_the_log(
        self, store, capsys, monkeypatch
    ):
        append_lines(monkeypatch, store, "/alerts", ["not json", GOOD_ALERT])
        capsys.readouterr()
        message = exit_message(["health", store, "--show-log"])
        assert "undecodable record #0 in /alerts" in message
        assert "healthy" not in capsys.readouterr().out
