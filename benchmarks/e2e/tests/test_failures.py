"""The checks can fail: wrong answers and leaks flip the exit code."""

import dataclasses
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from e2e import cli, guard
from e2e.run import HERE
from e2e.workloads import BY_NAME

RUN = str(HERE / "run.py")


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_clean_run_exits_zero(capsys):
    code = cli.main(["--workload", "lib_fem", "--seconds", "0.5"],
                    scale=0.02)
    final = _last_json(capsys)
    assert code == 0 and final["correct"] and final["failed"] == 0


def test_wrong_result_is_counted_and_flips_the_exit_code(
        capsys, monkeypatch):
    good = BY_NAME["lib_fem"]
    bad = dataclasses.replace(
        good, decode=lambda raw: np.asarray(raw) * (1.0 + 1e-6))
    monkeypatch.setitem(cli.BY_NAME, "lib_fem", bad)
    code = cli.main(["--workload", "lib_fem", "--seconds", "0.5"],
                    scale=0.02)
    final = _last_json(capsys)
    assert code == cli.EXIT_FAILED_REQUESTS
    assert final["correct"] is False
    # Every checked result missed: 4 set-ups, 8 first-per-pool-vector
    # results in the warm-up, the last result of each of 8 blocks.
    assert final["failed"] == 4 + 8 + 8
    assert final["attempted"] > final["failed"]


def test_raising_request_is_counted_as_failed():
    from e2e.inputs import make_inputs
    from e2e.runner import Tally
    from e2e.workloads import Stack

    def boom(stack, i):
        raise RuntimeError("request failed")

    inputs = make_inputs("Epidem", 0, scale=0.02)
    tally = Tally()
    wave = dataclasses.replace(BY_NAME["serve_burst"], step=boom)
    with Stack(inputs) as stack:
        assert tally.attempt(wave, stack, 0) == []
    assert (tally.attempted, tally.failed) == (8, 8)


def test_leaked_child_trips_the_guard():
    g = guard.Guard()
    child = subprocess.Popen(
        [sys.executable, "-c", "import time; time.sleep(60)"])
    assert child.pid in guard.child_pids()
    leaks = g.sweep()
    assert any("child processes" in leak and str(child.pid) in leak
               for leak in leaks)
    assert child.pid not in guard.child_pids()      # killed and reaped
    assert g.sweep() == []


def test_leaked_thread_socket_and_segment_trip_the_guard():
    g = guard.Guard()
    assert g.sweep() == []
    release = threading.Event()
    thread = threading.Thread(target=release.wait, name="leaky")
    thread.start()
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    segment = f"/dev/shm/repro-e2e-selftest-{os.getpid()}"
    open(segment, "w").close()
    try:
        leaks = " ".join(g.sweep())
        assert "leaky" in leaks
        assert str(port) in leaks
        assert segment in leaks
    finally:
        release.set()
        thread.join(timeout=5.0)
        listener.close()
        os.unlink(segment)
    assert g.sweep() == []


def test_deadline_interrupts_the_main_thread():
    with guard.Guard() as g:
        g.arm(0.05)
        with pytest.raises(guard.Interrupted) as info:
            time.sleep(5.0)
        assert info.value.code == guard.EXIT_DEADLINE
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_sigterm_mid_run_tears_down_and_exits_non_zero():
    proc = subprocess.Popen(
        [sys.executable, RUN, "--workload", "wire_epidem",
         "--seconds", "30"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    time.sleep(4.0)              # inputs, set-ups, into the closed loop
    proc.send_signal(signal.SIGTERM)
    out, err = proc.communicate(timeout=30)
    assert proc.returncode == guard.EXIT_SIGTERM
    assert "interrupted: SIGTERM" in err
    assert "e2e guard:" not in err           # the sweep found no leak
    assert not out.strip().endswith("}")     # and no result was printed
