"""Parallel row formatting: the same bytes as the serial writer, and a pool
only where a write is large enough and the host has a CPU to spare."""

import multiprocessing
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from conftest import ADVERSARIAL
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fgpan.rowtext as rowtext
from fgpan.cli import dispatch, parse_config
from fgpan.data import SlideRecord, save_slide
from fgpan.params import init_params, save_checkpoint


def serial_texts(values, widths):
    """The reference: each row's values through repr, one row at a time."""
    ends = np.cumsum(widths)
    return [" ".join(repr(float(v)) for v in values[e - w : e]) for e, w in zip(ends, widths)]


@pytest.fixture()
def fresh_pool():
    """No pool before the test; the test's pool, if any, stopped after."""
    rowtext._drop_pool()
    yield
    rowtext._drop_pool()


@pytest.fixture()
def four_cpus(monkeypatch, fresh_pool):
    """Every write through a pool of three workers, whatever the host."""
    monkeypatch.setattr(rowtext, "PARALLEL_VALUES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})


def _write_both(write, monkeypatch, tmp_path):
    """The bytes write(path) gives serially and through the pool."""
    out = []
    for tag, threshold in (("serial", 1 << 62), ("pool", 1)):
        monkeypatch.setattr(rowtext, "PARALLEL_VALUES", threshold)
        path = tmp_path / tag
        write(path)
        out.append(path.read_bytes())
    return out


finite = st.one_of(st.sampled_from(ADVERSARIAL), st.floats(allow_nan=False, allow_infinity=False))


class TestSameBytes:
    # the fixtures run once around all examples, which share one pool
    @settings(max_examples=30, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.integers(1, 9), min_size=1, max_size=11), st.data())
    def test_row_texts_match_serial(self, four_cpus, widths, data):
        """Any row widths, including fewer rows than CPUs and counts the
        four shares do not divide."""
        values = np.array(data.draw(st.lists(finite, min_size=sum(widths),
                                             max_size=sum(widths))))
        assert list(rowtext.row_texts(values, widths)) == serial_texts(values, widths)
        assert len(rowtext._pool) == 3

    @pytest.mark.parametrize("m", [1, 2, 7, 30])
    def test_slide(self, m, four_cpus, monkeypatch, tmp_path):
        rng = np.random.default_rng(m)
        d = 5
        features = rng.choice(ADVERSARIAL, size=(m, d)) * rng.choice([1.0, rng.random()],
                                                                    size=(m, d))
        cells = rng.choice(64, size=m, replace=False)
        rec = SlideRecord("s", 0, np.stack(np.divmod(cells, 8), axis=1), features, 8, 8)
        serial, pooled = _write_both(lambda p: save_slide(rec, p), monkeypatch, tmp_path)
        assert pooled == serial
        assert rowtext._pool is not None

    @pytest.mark.parametrize("pos_mode", ["sinusoidal", "learned_table"])
    def test_checkpoint(self, pos_mode, four_cpus, monkeypatch, tmp_path):
        params = init_params(3, 2, 2, pos_mode=pos_mode, grid_rows=3, grid_cols=2)
        rng = np.random.default_rng(1)
        params = params.with_flat(rng.choice(ADVERSARIAL, size=params.n_scalars))
        serial, pooled = _write_both(lambda p: save_checkpoint(params, p), monkeypatch,
                                     tmp_path)
        assert pooled == serial

    def test_dead_worker_leaves_its_share_to_the_caller(self, four_cpus):
        values = np.arange(40) / 7.0
        widths = [4] * 10
        want = serial_texts(values, widths)
        assert list(rowtext.row_texts(values, widths)) == want
        pool = rowtext._pool
        for proc, _ in pool:
            proc.kill()
            proc.join(timeout=30)
        assert list(rowtext.row_texts(values, widths)) == want
        # the dead pool is dropped; the next large write makes a new one
        assert rowtext._pool is None
        assert list(rowtext.row_texts(values, widths)) == want
        assert rowtext._pool is not None and rowtext._pool is not pool

    def test_worker_sends_a_large_share_in_pieces(self, four_cpus, monkeypatch):
        monkeypatch.setattr(rowtext, "_SEND_VALUES", 5)
        values = np.arange(200) / 3.0
        widths = [3, 1, 4, 1, 5, 9, 2, 6] * 5 + [50, 26]
        assert list(rowtext.row_texts(values, widths)) == serial_texts(values, widths)

    def test_write_left_unfinished_drops_the_pool(self, four_cpus):
        """A writer that stops early (its file failed) leaves text unread in
        the pipes; the next write must not read it as its own."""
        first, second = np.arange(40) / 7.0, np.arange(40) / 9.0
        texts = rowtext.row_texts(first, [4] * 10)
        next(texts)
        texts.close()
        assert rowtext._pool is None
        assert list(rowtext.row_texts(second, [4] * 10)) == serial_texts(second, [4] * 10)


class TestConcurrentWrites:
    def test_interleaved_writes(self, four_cpus):
        """A write that starts while another is unfinished formats its own
        rows; neither reads the other's text from the pipes."""
        a, b = np.arange(60) / 7.0, np.arange(60) / 11.0
        widths = [5] * 12
        first, second = rowtext.row_texts(a, widths), rowtext.row_texts(b, widths)
        got_a = [next(first)]
        got_b = list(second)
        got_a += list(first)
        assert got_a == serial_texts(a, widths)
        assert got_b == serial_texts(b, widths)

    def test_threads(self, four_cpus):
        """More writing threads than CPUs, switching as often as the
        interpreter allows: every write gets its own rows."""
        widths = [7] * 30

        def write(k):
            values = np.arange(210) / (k + 3.0)
            return [list(rowtext.row_texts(values, widths)) == serial_texts(values, widths)
                    for _ in range(5)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(6) as ex:
                futures = [ex.submit(write, k) for k in range(12)]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(all(r) for r in results)


def _exit_with_pool_state():
    os._exit(0 if rowtext._pool is None else 1)


class TestWhenThePoolStarts:
    def test_desk_cli_run_starts_no_process(self, fresh_pool, tmp_path, capsys):
        """gen, train and infer at desk size (1,024-value slides, a 1.9k-value
        checkpoint) format every write in the caller."""
        data, ckpt = tmp_path / "data", tmp_path / "m.ckpt"
        flags = ["--dim", "16", "--seed", "4"]
        for argv in (
            ["gen", "--out", str(data), "--slides-per-class", "2"],
            ["train", "--data", str(data), "--prototypes", str(data / "prototypes.jsonl"),
             "--checkpoint", str(ckpt), "--iterations", "2"],
            ["infer", "--data", str(data), "--prototypes", str(data / "prototypes.jsonl"),
             "--checkpoint", str(ckpt), "--out", str(tmp_path / "p.jsonl")],
        ):
            assert dispatch(parse_config(argv + flags)) == 0, capsys.readouterr().err
        assert 64 * 16 < rowtext.PARALLEL_VALUES
        assert rowtext._pool is None
        assert multiprocessing.active_children() == []

    def test_one_cpu_runs_serially(self, fresh_pool, monkeypatch):
        monkeypatch.setattr(rowtext, "PARALLEL_VALUES", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        values = np.linspace(-1.0, 1.0, 12)
        assert list(rowtext.row_texts(values, [3] * 4)) == serial_texts(values, [3] * 4)
        assert rowtext._pool is None
        assert multiprocessing.active_children() == []

    def test_forked_child_does_not_use_the_parents_pool(self, four_cpus):
        list(rowtext.row_texts(np.ones(8), [4, 4]))
        assert rowtext._pool is not None
        child = multiprocessing.get_context("fork").Process(target=_exit_with_pool_state)
        child.start()
        child.join(timeout=30)
        assert child.exitcode == 0
