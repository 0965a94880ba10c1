"""A table's cells shared between the calling process and forked helpers.

Tests that need helpers pretend the process may use several cores, so they
start helpers on any machine, and stop every helper before and after, so no
helper outlives the module state it was forked with.
"""

import dataclasses
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from latcorr import cli, harness

pytestmark = pytest.mark.skipif(not harness._CAN_FORK,
                                reason="needs os.fork and os.sched_getaffinity")


@pytest.fixture
def cores(monkeypatch):
    """Make ``os.sched_getaffinity`` report ``n`` usable cores."""
    def set_cores(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    set_cores(2)
    return set_cores


@pytest.fixture
def fresh_helpers():
    harness._stop_helpers()
    yield
    harness._stop_helpers()


def config(study_model, **kw):
    defaults = dict(model=study_model, b_n=(16, 32, 64, 128), r=(3.0,),
                    variants=("1", "2", "w"), replications=8, seed=7)
    defaults.update(kw)
    return harness.ExperimentConfig(**defaults)


def helper_pids():
    return [helper[0] for helper in harness._helpers]


def test_rows_are_identical_for_every_worker_count(study_model, cores, fresh_helpers):
    # a_n = 1 (r = 0) leaves some replications degenerate, a_n = b_n**-5 every one
    cfg = config(study_model, b_n=(16, 64, 32, 256), r=(3.0, 0.0, -5.0), variants=harness.VARIANTS,
                 replications=10, bandwidth_overrides={"w": 0.4})
    cores(4)
    base = harness.run_mse_table(cfg, n_workers=1)
    assert any(row.degenerate_count for row in base)
    assert any(not row.valid for row in base)
    for n_workers in (0, 1, 2, 3, 8):
        rows = harness.run_mse_table(cfg, n_workers=n_workers)
        # repr shows every field, mse_stderr and NaNs included, to the last bit
        assert repr(rows) == repr(base), n_workers
        # a helper's rows hold the config's r objects, as the caller's do
        assert {id(row.r) for row in rows} == {id(r) for r in cfg.r}
    assert len(helper_pids()) == 3


@pytest.mark.parametrize("threads", ["0", "2"])
def test_cli_tables_print_the_same_bytes_for_any_threads(tmp_path, capsys, cores, fresh_helpers,
                                                         threads):
    cfg = tmp_path / "grid.json"
    cfg.write_text('{"model": {"mu1": 0.2, "mu2": 0.3, "sigma1": 0.2, "sigma2": 0.3, '
                   '"rho": 0.7, "x1_0": 1.0, "x2_0": 2.0}, "b_n": [16, 32, 64], '
                   '"r": [2.0, 3.5], "replications": 6, "seed": 3}')
    outputs = []
    for value in ("1", threads):
        for fmt in ("csv", "md"):
            assert cli.main(["mse-table", "--config", str(cfg), "--format", fmt,
                             "--threads", value]) == 0
            outputs.append(capsys.readouterr().out)
    assert outputs[:2] == outputs[2:]
    assert helper_pids()


def test_planned_processes_are_capped_without_starting_any(study_model, cores):
    cfg = config(study_model, b_n=(16, 32, 64, 128, 256, 512), r=(2.0, 3.0))
    cores(3)
    for n_workers, k in [(100000, 3), (0, 3), (2, 2), (1, 1)]:
        shares = harness._shares(cfg, n_workers)
        assert len(shares) == k
        assert sorted(i for share in shares for i in share) == list(range(12))
    assert len(harness._shares(config(study_model, b_n=(16,)), 100000)) == 1
    # the largest cells go first, so each process gets one b_n = 512 cell
    assert [sum(i % 6 == 5 for i in share) for share in harness._shares(cfg, 2)] == [1, 1]


def test_planning_alone_starts_no_helper(study_model, cores, fresh_helpers):
    harness._shares(config(study_model), 100000)
    assert helper_pids() == []


def test_error_of_a_helper_cell_surfaces_in_table_order(study_model, cores, fresh_helpers):
    # a_n = 1/b_n: cumulative counts of about 4.4e20/b_n pass the int64 range for b_n < 64
    model = dataclasses.replace(study_model, x1_0=4e20)
    cfg = config(model, b_n=(16, 32, 8, 64, 128, 256), r=(-1.0,), replications=4)
    own, helper = harness._shares(cfg, 2)
    assert 0 in helper and {1, 2} <= set(own)  # the first failing cell is the helper's
    with pytest.raises(ValueError) as serial:
        harness.run_mse_table(cfg, n_workers=1)
    with pytest.raises(ValueError) as shared:
        harness.run_mse_table(cfg, n_workers=2)
    assert "64-bit range" in str(serial.value)
    assert (type(shared.value), str(shared.value)) == (type(serial.value), str(serial.value))
    ok = dataclasses.replace(cfg, b_n=(64, 128, 256))
    assert repr(harness.run_mse_table(ok, n_workers=2)) == repr(harness.run_mse_table(ok))


def test_first_failing_cell_in_table_order_wins_over_the_callers(study_model, monkeypatch, cores,
                                                                 fresh_helpers):
    real = harness.aggregate_cell

    def fail_small(records, config, b_n, r):
        if b_n < 64:
            raise ValueError(f"cell b_n={b_n}")
        return real(records, config, b_n, r)

    monkeypatch.setattr(harness, "aggregate_cell", fail_small)  # before the helper forks
    cfg = config(study_model, b_n=(16, 32, 8, 64, 128, 256), r=(3.0,), replications=2)
    own, helper = harness._shares(cfg, 2)
    assert 0 in helper and {1, 2} <= set(own)
    with pytest.raises(ValueError, match="^cell b_n=16$"):
        harness.run_mse_table(cfg, n_workers=2)
    assert len(helper_pids()) == 1


def test_a_killed_helper_leaves_the_next_rows_unchanged(study_model, cores, fresh_helpers):
    cfg = config(study_model)
    base = repr(harness.run_mse_table(cfg))
    assert repr(harness.run_mse_table(cfg, n_workers=2)) == base
    (pid,) = helper_pids()
    os.kill(pid, signal.SIGKILL)
    assert repr(harness.run_mse_table(cfg, n_workers=2)) == base
    assert pid not in helper_pids()
    assert repr(harness.run_mse_table(cfg, n_workers=2)) == base  # with a new helper
    assert len(helper_pids()) == 1


def test_a_failed_fork_leaves_the_rows_unchanged(study_model, monkeypatch, cores, fresh_helpers):
    def no_fork():
        raise OSError("no fork to be had")

    monkeypatch.setattr(os, "fork", no_fork)
    cfg = config(study_model)
    fds = len(os.listdir("/proc/self/fd"))
    assert repr(harness.run_mse_table(cfg, n_workers=2)) == repr(harness.run_mse_table(cfg))
    assert helper_pids() == []
    assert len(os.listdir("/proc/self/fd")) == fds  # the pipes of the helper are closed


def test_a_helper_ignores_sigint(study_model, cores, fresh_helpers):
    cfg = config(study_model)
    base = repr(harness.run_mse_table(cfg))
    harness.run_mse_table(cfg, n_workers=2)
    (pid,) = helper_pids()
    os.kill(pid, signal.SIGINT)
    time.sleep(0.2)
    assert repr(harness.run_mse_table(cfg, n_workers=2)) == base
    assert helper_pids() == [pid]


def test_an_interrupted_call_kills_its_helpers(study_model, monkeypatch, cores, fresh_helpers):
    small = config(study_model)
    harness.run_mse_table(small, n_workers=2)
    (pid,) = helper_pids()

    def interrupt(config, r, b_n):
        raise KeyboardInterrupt

    # the helper's share would take minutes; the caller's is interrupted at once
    busy = config(study_model, b_n=(2048, 2048), replications=5000)
    with monkeypatch.context() as patch:  # in this process only: the helper already runs
        patch.setattr(harness, "_cell_rows", interrupt)
        with pytest.raises(KeyboardInterrupt):
            harness.run_mse_table(busy, n_workers=2)
    assert helper_pids() == [] and not _running(pid)
    start = time.monotonic()
    assert repr(harness.run_mse_table(small, n_workers=2)) == repr(harness.run_mse_table(small))
    assert time.monotonic() - start < 10.0
    assert len(helper_pids()) == 1 and helper_pids() != [pid]


@pytest.mark.parametrize("ending", ["return", "os._exit(0)", "os.kill(os.getpid(), 9)"])
def test_helpers_are_gone_once_their_caller_exits(ending):
    """However the caller ends, its exit ends each helper's command pipe."""
    src = Path(harness.__file__).resolve().parents[1]
    script = textwrap.dedent(f"""
        import os
        os.sched_getaffinity = lambda pid: {{0, 1}}
        from latcorr import harness, sim
        model = sim.ModelParams(mu1=0.2, mu2=0.3, sigma1=0.2, sigma2=0.3, rho=0.7,
                                x1_0=1.0, x2_0=2.0, T=1.0)
        cfg = harness.ExperimentConfig(model=model, b_n=(16, 32), r=(3.0,), replications=4)
        harness.run_mse_table(cfg, n_workers=2)
        print(*[helper[0] for helper in harness._helpers], flush=True)
        def end():
            {ending}
        end()
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    # the helpers hold the stdout pipe too, so this returns only once they are gone
    proc = subprocess.run([sys.executable, "-c", script], env=env, stdout=subprocess.PIPE,
                          text=True, timeout=60)
    pids = [int(pid) for pid in proc.stdout.split()]
    assert len(pids) == 1
    deadline = time.monotonic() + 5.0
    alive = pids
    while alive and time.monotonic() < deadline:
        alive = [pid for pid in alive if _running(pid)]
        time.sleep(0.05)
    assert alive == []


def _running(pid: int) -> bool:
    """Whether ``pid`` runs; a zombie, which only its parent can reap, has ended."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_a_table_run_off_the_main_thread_stays_in_process(study_model, cores, fresh_helpers):
    cfg = config(study_model)
    out = []
    worker = threading.Thread(target=lambda: out.append(harness.run_mse_table(cfg, n_workers=2)))
    worker.start()
    worker.join()
    assert helper_pids() == []
    assert repr(out[0]) == repr(harness.run_mse_table(cfg))
