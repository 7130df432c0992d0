"""Parallel row formatting and file reading: the same bytes as the serial
writer, the same results and errors as the serial loaders, and a pool only
where a write or read is large enough and the host has a CPU to spare."""

import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest
from conftest import ADVERSARIAL
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fgpan.rowtext as rowtext
import fgpan.cli
from fgpan.cli import dispatch, main, parse_config
from fgpan.data import SlideRecord, load_slide, save_slide
from fgpan.params import ModelParams, init_params, load_checkpoint, save_checkpoint


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
    """Every write and read through a pool of three workers, whatever the host."""
    monkeypatch.setattr(rowtext, "PARALLEL_VALUES", 1)
    monkeypatch.setattr(rowtext, "PARALLEL_BYTES", 1)
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

    def test_write_call_that_raises_in_a_worker_is_made_again(self, four_cpus, monkeypatch):
        """The caller formats the rows of every worker call that raised, to
        the serial text, and the workers stay in the pool."""
        monkeypatch.setattr(rowtext, "_SEND_VALUES", 6)
        rows = []  # row count of each write call made in the caller
        monkeypatch.setattr(rowtext, "_format", partial(_format_in_the_caller_only, rows))
        values, widths = np.arange(60) / 7.0, [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 2]
        assert list(rowtext.row_texts(values, widths)) == serial_texts(values, widths)
        pool = rowtext._pool
        assert sum(rows) == len(widths)
        assert list(rowtext.row_texts(values, widths)) == serial_texts(values, widths)
        assert rowtext._pool is pool


_FORMAT = rowtext._format


def _format_in_the_caller_only(rows, values, widths):
    """rowtext._format, raising in a pool worker and noting each call's row
    count in the caller."""
    if multiprocessing.parent_process() is not None:
        raise RuntimeError("a worker's write call failed")
    rows.append(len(widths))
    return _FORMAT(values, widths)


class TestPickledResults:
    """Read results cross the pipe pickled, rebuilt through their
    constructors."""

    @pytest.mark.parametrize("label", [None, 2])
    def test_slide_record_round_trip(self, label):
        rng = np.random.default_rng(3)
        rec = SlideRecord("s", label, [[0, 1], [3, 2], [1, 1]], rng.standard_normal((3, 4)), 5, 6)
        back = pickle.loads(pickle.dumps(rec))
        assert _fingerprint(back) == _fingerprint(rec)
        assert not back.coords().flags.writeable and not back.matrix().flags.writeable

    @pytest.mark.parametrize("pos_mode", ["sinusoidal", "learned_table"])
    def test_model_params_round_trip(self, pos_mode):
        params = init_params(4, 2, 2, pos_mode=pos_mode, grid_rows=3, grid_cols=2, seed=1)
        params = params.with_flat(np.random.default_rng(2).choice(ADVERSARIAL, params.n_scalars))
        back = pickle.loads(pickle.dumps(params))
        assert _fingerprint(back) == _fingerprint(params)
        assert back.agg.positional_mode == pos_mode

    def test_model_params_made_non_finite_fails_to_unpickle(self):
        params = init_params(4, 2, 2, seed=1)
        params["gates.b_g"][1] = np.nan  # through the view, after the checks ran
        data = pickle.dumps(params)
        with pytest.raises(ValueError, match="parameter leaf 'gates.b_g' holds a non-finite"):
            pickle.loads(data)


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
        """gen, train, infer and eval at desk size (1,024-value slides, a
        1.9k-value checkpoint, 40 slide files of about 21 KB) format every
        write and read every file in the caller."""
        data, ckpt = tmp_path / "data", tmp_path / "m.ckpt"
        flags = ["--dim", "16", "--seed", "4"]
        for argv in (
            ["gen", "--out", str(data)],
            ["train", "--data", str(data), "--prototypes", str(data / "prototypes.jsonl"),
             "--checkpoint", str(ckpt), "--iterations", "2"],
            ["infer", "--data", str(data), "--prototypes", str(data / "prototypes.jsonl"),
             "--checkpoint", str(ckpt), "--out", str(tmp_path / "p.jsonl")],
            ["eval", "--data", str(data), "--predictions", str(tmp_path / "p.jsonl")],
        ):
            assert dispatch(parse_config(argv + flags)) == 0, capsys.readouterr().err
        assert 64 * 16 < rowtext.PARALLEL_VALUES
        batch = sum(p.stat().st_size for p in [*data.glob("*.slide"), ckpt])
        assert len(list(data.glob("*.slide"))) == 40 and batch < rowtext.PARALLEL_BYTES
        assert rowtext._pool is None
        assert multiprocessing.active_children() == []

    def test_one_cpu_runs_serially(self, fresh_pool, monkeypatch, tmp_path):
        monkeypatch.setattr(rowtext, "PARALLEL_VALUES", 1)
        monkeypatch.setattr(rowtext, "PARALLEL_BYTES", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        values = np.linspace(-1.0, 1.0, 12)
        assert list(rowtext.row_texts(values, [3] * 4)) == serial_texts(values, [3] * 4)
        paths = _write_slides(tmp_path, [3, 2])
        calls = []
        reads = [("slide", partial(_recording(load_slide, calls), p)) for p in paths]
        assert _outcome(rowtext.read_files(reads)) == _outcome(_serial_reads(paths))
        assert calls == paths
        assert rowtext._pool is None
        assert multiprocessing.active_children() == []

    def test_forked_child_does_not_use_the_parents_pool(self, four_cpus):
        list(rowtext.row_texts(np.ones(8), [4, 4]))
        assert rowtext._pool is not None
        child = multiprocessing.get_context("fork").Process(target=_exit_with_pool_state)
        child.start()
        child.join(timeout=30)
        assert child.exitcode == 0


def _fingerprint(result):
    """Everything a read result holds, arrays as (dtype, shape, bytes), so
    that equal fingerprints mean bitwise-equal results."""
    if isinstance(result, ModelParams):
        return "params", result.dims, result.theta.tobytes()
    arrays = [(a.dtype.str, a.shape, a.tobytes()) for a in (result.coords(), result.matrix())]
    return "slide", result.slide_id, result.label, result.grid_rows, result.grid_cols, arrays


def _write_slides(tmp_path, rows, d=3, seed=0):
    """One slide file per entry of rows (its patch count), in sorted path
    order, on a 4 x 4 grid; the values' text has one length, so a file's
    size follows its row count."""
    rng = np.random.default_rng(seed)
    paths = []
    for j, m in enumerate(rows):
        cells = rng.permutation(16)[:m]
        features = rng.integers(1, 9, size=(m, d)) / 8.0
        rec = SlideRecord(f"s{j}", j % 3, np.stack(np.divmod(cells, 4), axis=1), features, 4, 4)
        paths.append(tmp_path / f"s{j}.slide")
        save_slide(rec, paths[-1])
    return paths


def _recording(load, calls):
    """load, noting each path the caller reads with it."""
    def recorded(path, **kwargs):
        calls.append(path)
        return load(path, **kwargs)
    return recorded


def _outcome(results):
    """The fingerprints of results taken in order, or the first error's
    type and message."""
    try:
        return [_fingerprint(take()) for take in results]
    except (ValueError, OSError) as exc:
        return type(exc), str(exc)


def _serial_reads(paths, ckpt=None):
    reads = [partial(load_slide, p) for p in paths]
    if ckpt is not None:
        reads.append(partial(load_checkpoint, ckpt, expect_dim=2))
    return reads


class TestReads:
    # the fixtures run once around all examples, which share one pool
    @settings(max_examples=25, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 4), st.one_of(st.none(),
                                                                           st.integers(0, 9))),
                    min_size=1, max_size=7),
           st.sampled_from([None, "sinusoidal", "learned_table"]), st.data())
    def test_pooled_reads_equal_serial(self, four_cpus, tmp_path, slides, pos_mode, data):
        """Any number of slide files of any shape and values, with or
        without a checkpoint: the same results, bit for bit, in order, and
        the caller reads only its own share."""
        paths = []
        for j, (m, d, label) in enumerate(slides):
            values = data.draw(st.lists(finite, min_size=m * d, max_size=m * d))
            cells = np.array(data.draw(st.permutations(range(16))))[:m]
            rec = SlideRecord(f"s{j}", label, np.stack(np.divmod(cells, 4), axis=1),
                              np.array(values).reshape(m, d), 4, 4)
            paths.append(tmp_path / f"s{j}.slide")
            save_slide(rec, paths[-1])
        ckpt = None
        if pos_mode is not None:
            params = init_params(2, 2, 1, pos_mode=pos_mode, grid_rows=2, grid_cols=3)
            values = data.draw(st.lists(finite, min_size=params.n_scalars,
                                        max_size=params.n_scalars))
            ckpt = tmp_path / "m.ckpt"
            save_checkpoint(params.with_flat(np.array(values)), ckpt)
        serial = _serial_reads(paths, ckpt)
        calls = []
        kinds = ["slide"] * len(paths) + ["checkpoint"] * (ckpt is not None)
        reads = [(kind, partial(_recording(load.func, calls), *load.args, **load.keywords))
                 for kind, load in zip(kinds, serial)]
        results = rowtext.read_files(reads)
        assert len(calls) < len(reads)  # the workers read the rest
        assert _outcome(results) == _outcome(serial)
        assert len(rowtext._pool) == 3

    @pytest.mark.parametrize("fault", ["token", "row count"])
    @pytest.mark.parametrize("first", ["caller", "worker"])
    def test_first_fault_in_serial_order_is_reported(self, four_cpus, tmp_path, fault, first):
        """A faulty file on the caller's share and one on a worker's: the
        error taken is the serial loader's for the first in path order."""
        paths = _write_slides(tmp_path, [3, 9, 1, 7, 5, 8, 2])
        calls = []
        rowtext.read_files([("slide", partial(_recording(load_slide, calls), p))
                            for p in paths])
        mine = [p for p in paths if p in calls]
        theirs = [p for p in paths if p not in calls]
        if first == "caller":
            a = mine[0]
            b = next(p for p in theirs if p > a)
        else:
            a = theirs[0]
            b = next(p for p in mine if p > a)
        for path in (a, b):  # each fault keeps the file's size, so the shares stay
            text = path.read_text()
            if fault == "token":
                text = text[: text.rindex(" ") + 1] + "x" + text[text.rindex(" ") + 2 :]
            else:
                text = text.replace('"M": ', '"M": 1', 1).replace(', "grid_rows"', ',"grid_rows"')
            path.write_text(text)
        calls.clear()
        pooled = rowtext.read_files([("slide", partial(_recording(load_slide, calls), p))
                                     for p in paths])
        assert (a in calls) == (first == "caller") and (b in calls) == (first == "worker")
        want = _outcome(_serial_reads(paths))
        assert want[0] is ValueError and str(a) in want[1]
        assert _outcome(pooled) == want

    @pytest.mark.parametrize("when", ["reading", "sending"])
    def test_worker_killed_mid_read(self, four_cpus, tmp_path, monkeypatch, when):
        """Every worker dies at its second file, while it reads it or while
        it sends it after sending the first: the caller's loader reads what
        they did not send, the results are the same, and the next read
        makes a new pool."""
        paths = _write_slides(tmp_path, [4] * 9)  # two files or more per worker
        caller = os.getpid()
        seen = []  # in a worker, the files it has handled

        def second_file_in_worker(stage):
            if os.getpid() != caller and stage == when:
                seen.append(1)
                if len(seen) == 2:
                    os.kill(os.getpid(), signal.SIGKILL)

        class DieWhenSent(str):
            def __reduce__(self):
                second_file_in_worker("sending")
                return str, (str(self),)

        def dying_load(path):
            second_file_in_worker("reading")
            rec = load_slide(path)
            return SlideRecord(DieWhenSent(rec.slide_id), rec.label, rec.coords(), rec.matrix(),
                               rec.grid_rows, rec.grid_cols)

        monkeypatch.setitem(rowtext._readers, "slide", dying_load)
        rowtext._drop_pool()  # the writes made one; workers forked from here read so
        want = _outcome(_serial_reads(paths))
        reads = [("slide", load) for load in _serial_reads(paths)]
        assert _outcome(rowtext.read_files(reads)) == want
        assert rowtext._pool is None
        monkeypatch.setitem(rowtext._readers, "slide", load_slide)
        assert _outcome(rowtext.read_files(reads)) == want
        assert rowtext._pool is not None

    def test_result_its_constructor_refuses_is_read_again(self, four_cpus, tmp_path,
                                                          monkeypatch):
        """A worker's result that fails its constructor's checks when it is
        unpickled is read again by the caller's loader; the pool stays."""
        paths = _write_slides(tmp_path, [3, 5, 2, 4])
        monkeypatch.setitem(rowtext._readers, "slide", _refused_when_rebuilt)
        rowtext._drop_pool()  # workers forked from here read so
        calls = []
        results = rowtext.read_files([("slide", partial(_recording(load_slide, calls), p))
                                      for p in paths])
        pool = rowtext._pool
        assert 0 < len(calls) < len(paths)  # the caller's own share
        assert _outcome(results) == _outcome(_serial_reads(paths))
        assert sorted(calls) == paths  # the rest, when taken
        assert pool is not None and rowtext._pool is pool

    def test_read_while_another_thread_writes(self, four_cpus, tmp_path):
        """A read that starts while a write holds the pool reads every file
        in its own thread, and neither sees the other's data."""
        paths = _write_slides(tmp_path, [5, 3, 6, 2])
        values = np.arange(60) / 7.0
        texts = rowtext.row_texts(values, [5] * 12)
        got = [next(texts)]  # the write now holds the pool
        calls, out = [], []
        reads = [("slide", partial(_recording(load_slide, calls), p)) for p in paths]
        reader = threading.Thread(target=lambda: out.append(_outcome(rowtext.read_files(reads))))
        reader.start()
        reader.join(timeout=60)
        assert not reader.is_alive()
        assert calls == paths  # all in the reading thread, none through the pool
        assert out == [_outcome(_serial_reads(paths))]
        got += list(texts)
        assert got == serial_texts(values, [5] * 12)

    def test_threads_reading_and_writing(self, four_cpus, tmp_path):
        """More threads than CPUs, reading and writing, switching as often as
        the interpreter allows: every read and write gets its own data."""
        paths = _write_slides(tmp_path, [2, 5, 3, 4, 1, 6])
        want = _outcome(_serial_reads(paths))
        reads = [("slide", load) for load in _serial_reads(paths)]
        widths = [7] * 30

        def work(k):
            values = np.arange(210) / (k + 3.0)
            return [_outcome(rowtext.read_files(reads)) == want
                    and list(rowtext.row_texts(values, widths)) == serial_texts(values, widths)
                    for _ in range(4)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(6) as ex:
                futures = [ex.submit(work, k) for k in range(12)]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(all(r) for r in results)


class _RefusedWhenRebuilt:
    def __reduce__(self):
        return SlideRecord, ("bad", 0, [[0, 0]], [[np.nan]])


def _refused_when_rebuilt(path):
    """A worker loader whose result SlideRecord refuses in the caller."""
    return _RefusedWhenRebuilt()


def _infer_argv(data, ckpt, out):
    return ["infer", "--data", str(data), "--prototypes", str(data / "prototypes.jsonl"),
            "--checkpoint", str(ckpt), "--out", str(out), "--dim", "8", "--seed", "2"]


@pytest.fixture()
def corpus(tmp_path, capsys):
    """A small corpus and a checkpoint trained on it."""
    data = tmp_path / "data"
    assert main_code(["gen", "--out", str(data), "--classes", "2", "--slides-per-class", "3",
                      "--patches-per-slide", "9", "--dim", "8", "--grid-rows", "4",
                      "--grid-cols", "4", "--seed", "2"]) == 0
    assert main_code(["train", "--data", str(data), "--prototypes",
                      str(data / "prototypes.jsonl"), "--checkpoint", str(tmp_path / "m.ckpt"),
                      "--dim", "8", "--iterations", "2", "--seed", "2"]) == 0
    capsys.readouterr()
    return data


def main_code(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


def _corrupt(path, fault):
    text = path.read_text()
    if fault == "missing":
        path.unlink()
    elif fault == "dims":
        path.write_text(text.replace('"dim": 8', '"dim": 4', 1))
    elif fault == "non-finite":
        path.write_text(text.replace("\nfusion.b_f ", "\nfusion.b_f nan ", 1))
    elif fault == "truncated":
        path.write_text(text[: len(text) // 2])


class TestInferReads:
    @pytest.mark.parametrize("fault", ["missing", "dims", "non-finite", "truncated"])
    @pytest.mark.parametrize("bad_slide", [False, True])
    def test_bad_checkpoint_reported_as_serially(self, four_cpus, corpus, tmp_path,
                                                 monkeypatch, capsys, fault, bad_slide):
        """A bad checkpoint with good slides, or with a bad slide too: the
        same stdout, stderr and exit code as the serial read, and no
        predictions file."""
        ckpt, out = tmp_path / "m.ckpt", tmp_path / "p.jsonl"
        _corrupt(ckpt, fault)
        if bad_slide:
            slide = sorted(corpus.glob("*.slide"))[-1]
            slide.write_text(slide.read_text().replace('"M": 9', '"M": 8'))
        runs = []
        for threshold in (1 << 62, 1):
            monkeypatch.setattr(rowtext, "PARALLEL_BYTES", threshold)
            code = main_code(_infer_argv(corpus, ckpt, out))
            runs.append((code, *capsys.readouterr()))
            assert not out.exists()
        assert rowtext._pool is not None
        assert runs[1] == runs[0]
        code, _, err = runs[0]
        assert code == 1 and err.startswith("error (infer): ")
        assert ("declares M=8" in err) == bad_slide

    def test_caller_share_goes_through_the_cli_loaders(self, four_cpus, corpus, tmp_path,
                                                      monkeypatch, capsys):
        """infer's own share calls fgpan.cli.load_slide and load_checkpoint as
        they are when it runs, so a tracer that replaces them sees it; the
        workers read the rest."""
        calls = []
        monkeypatch.setattr(fgpan.cli, "load_slide", _recording(load_slide, calls))
        monkeypatch.setattr(fgpan.cli, "load_checkpoint", _recording(load_checkpoint, calls))
        argv = _infer_argv(corpus, tmp_path / "m.ckpt", tmp_path / "p.jsonl")
        assert dispatch(parse_config(argv)) == 0, capsys.readouterr().err
        files = [*sorted(map(str, corpus.glob("*.slide"))), str(tmp_path / "m.ckpt")]
        assert 0 < len(calls) < len(files) and set(calls) <= set(files)

    def test_good_inputs_predict_as_serially(self, four_cpus, corpus, tmp_path, monkeypatch,
                                             capsys):
        ckpt, out = tmp_path / "m.ckpt", tmp_path / "p.jsonl"
        runs = []
        for threshold in (1 << 62, 1):
            monkeypatch.setattr(rowtext, "PARALLEL_BYTES", threshold)
            assert main_code(_infer_argv(corpus, ckpt, out)) == 0
            runs.append((*capsys.readouterr(), out.read_bytes()))
        assert runs[1] == runs[0]


_EXITING_INFER = """
import os, sys
import fgpan.rowtext as rowtext
from fgpan.cli import main
rowtext.PARALLEL_BYTES = 1
os.sched_getaffinity = lambda pid: {0, 1, 2, 3}
try:
    main(sys.argv[1:])
finally:
    print(*(proc.pid for proc, _ in rowtext._pool or ()), file=sys.stderr)
"""


def test_no_worker_outlives_its_process(corpus, tmp_path):
    """A CLI infer that read through the pool exits, and its workers are
    gone with it."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-c", _EXITING_INFER,
         *_infer_argv(corpus, tmp_path / "m.ckpt", tmp_path / "p.jsonl")],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    pids = [int(pid) for pid in proc.stderr.splitlines()[-1].split()]
    assert len(pids) == 3

    def alive(pid):
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True

    deadline = time.monotonic() + 10
    while any(map(alive, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(alive, pids))
