import json
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from framefuse import backends
from framefuse.backends import BackendError, ExternalBackend, ProtocolError
from framefuse.training import TrainingSession, run_session

FAKE_BACKEND = Path(__file__).resolve().parent / "fake_backend.py"


def backend_command(*flags):
    return " ".join([sys.executable, str(FAKE_BACKEND), *flags])


class TestExternalBackend:
    def test_handshake_and_predict(self):
        with ExternalBackend(backend_command()) as backend:
            backend.train([("a.jpg", "Fluid")])
            scores = backend.predict("a.jpg")
            assert sum(scores.values()) == pytest.approx(1.0, abs=1e-6)
            assert max(scores, key=scores.get) == "Fluid"

    def test_predict_is_deterministic_between_trains(self):
        with ExternalBackend(backend_command()) as backend:
            backend.train([("a.jpg", "Jam")])
            assert backend.predict("a.jpg") == backend.predict("a.jpg")

    def test_empty_train_is_acknowledged_noop(self):
        with ExternalBackend(backend_command()) as backend:
            assert backend.train([]) == 0

    def test_version_mismatch_rejected(self):
        with pytest.raises(ProtocolError):
            ExternalBackend(backend_command("--bad-hello"))

    def test_nan_score_is_a_protocol_error(self):
        with ExternalBackend(backend_command("--nan")) as backend:
            with pytest.raises(ProtocolError, match="not a number"):
                backend.predict("a.jpg")

    def test_close_kills_a_child_that_ignores_eof(self, monkeypatch):
        monkeypatch.setattr(backends, "CLOSE_WAIT_S", 0.2)
        backend = ExternalBackend(backend_command("--linger"))
        backend.close()
        assert backend._proc.returncode == -signal.SIGKILL
        assert backend._proc.stdout.closed

    def test_backend_that_exits_before_hello_fails_cleanly(self):
        with pytest.raises(BackendError, match="closed its output"):
            ExternalBackend(f"{sys.executable} -c pass")

    def test_unknown_command_fails_cleanly(self):
        with pytest.raises(BackendError):
            ExternalBackend("definitely-not-a-real-binary-xyz")

    def test_session_over_wire(self):
        items = [(f"img{i}.jpg", label) for i, label in
                 enumerate(["Empty", "Fluid", "Heavy", "Jam"] * 5)]
        session = TrainingSession(offline_set=items, crossval_set=items)
        with ExternalBackend(backend_command()) as backend:
            run_session(session, backend)
        assert session.quality_met is True
        assert session.final_accuracy == 1.0


class TestWireConformance:
    def run_script(self, requests):
        proc = subprocess.run(
            [sys.executable, str(FAKE_BACKEND)],
            input="\n".join(requests) + "\n",
            capture_output=True, text=True, timeout=30,
        )
        return [json.loads(line) for line in proc.stdout.splitlines()]

    def test_one_response_per_request_with_matching_ids(self):
        requests = [
            json.dumps({"op": "hello", "id": 0, "version": 1}),
            json.dumps({"op": "predict", "id": 1, "image": "x.jpg"}),
            json.dumps({"op": "train", "id": 2, "items": [{"image": "x.jpg", "label": "Jam"}]}),
            json.dumps({"op": "predict", "id": 3, "image": "x.jpg"}),
        ]
        replies = self.run_script(requests)
        assert [r["id"] for r in replies] == [0, 1, 2, 3]
        assert replies[0]["ok"] and replies[0]["version"] == 1
        assert sum(replies[1]["scores"].values()) == pytest.approx(1.0, abs=1e-6)
        assert max(replies[3]["scores"], key=replies[3]["scores"].get) == "Jam"

    def test_malformed_json_does_not_kill_the_loop(self):
        requests = [
            json.dumps({"op": "hello", "id": 0, "version": 1}),
            "{this is not json",
            json.dumps({"op": "predict", "id": 2, "image": "x.jpg"}),
        ]
        replies = self.run_script(requests)
        assert len(replies) == 3
        assert "error" in replies[1]
        assert "scores" in replies[2]
