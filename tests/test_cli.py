import json
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import rsbf.cli as cli_module
from rsbf import (
    SUITES,
    MonomialRsbfSpec,
    RunResult,
    VerificationReport,
    core,
    monomial_rsbf,
    sub_function,
    walsh_transform,
    weight,
)
from rsbf.cli import main

from conftest import assert_no_child, within

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture()
def runner():
    return CliRunner()


def test_analyze_text(runner):
    result = runner.invoke(main, ["analyze", "--n", "8", "--l", "4", "--e", "1"])
    assert result.exit_code == 0
    assert "weight             40" in result.output
    assert "nonlinearity       40" in result.output
    assert "walsh at zero      176" in result.output


def test_analyze_json(runner):
    result = runner.invoke(main, ["analyze", "--n", "8", "--format", "json"])
    assert result.exit_code == 0
    record = json.loads(result.output)
    assert record["weight"] == 40
    assert record["nonlinearity"] == 40
    assert record["walsh_at_zero"] == 176
    assert record["max_abs_walsh_mask"] == 0
    assert record["nonlinearity_equals_weight"] is True
    assert record["peak_at_zero"] is True
    assert record["degenerate"] is False


def test_analyze_csv_single_row(runner):
    result = runner.invoke(main, ["analyze", "--n", "6", "--format", "csv"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0].startswith("n,l,e,degenerate,weight,nonlinearity")
    assert len(lines) == 2


@pytest.mark.parametrize("l, e", [(4, 1), (2, 1), (3, 7)])
def test_analyze_reads_blocks_into_the_same_record(runner, l, e):
    # n = 21 is read in 8 blocks; the record must be the one the full
    # spectrum gives.  At l = 2, S(0) = 0 and +M (mask 1) ties -M (mask 7).
    n = 21
    tbl = monomial_rsbf(MonomialRsbfSpec(n, l, e))
    spectrum = walsh_transform(tbl)
    # the lowest signed and absolute argmax, from a |W| copy of the whole spectrum
    values = spectrum.values
    mask_s, mask_a = int(np.argmax(values)), int(np.argmax(np.abs(values)))
    value_s, value_a = int(values[mask_s]), int(abs(values[mask_a]))
    nl = (tbl.size - value_s) // 2
    want = {
        "n": n, "l": l, "e": e, "degenerate": False, "weight": weight(tbl), "nonlinearity": nl,
        "walsh_at_zero": spectrum[0], "max_walsh": value_s, "max_walsh_mask": int(mask_s),
        "max_abs_walsh": value_a, "max_abs_walsh_mask": int(mask_a),
        "nonlinearity_equals_weight": nl == weight(tbl), "peak_at_zero": value_a <= spectrum[0],
    }
    argv = ["analyze", "--n", str(n), "--l", str(l), "--e", str(e), "--format", "json"]
    result = runner.invoke(main, argv)
    assert result.exit_code == 0
    assert result.output == json.dumps(want, separators=(",", ":")) + "\n"


def test_analyze_working_memory(runner):
    # NumPy reports its buffers to tracemalloc.  analyze --n 22 may hold
    # the int8 store (1 byte a mask), the table's words, bytes and packed
    # int (1/8 byte a mask each), one int32 block and one tile (1 MiB
    # each), plus 256 KiB of slack.  Measured: 6,969,118 B against
    # 8,126,464 B allowed; a full int32 spectrum (16 MiB) does not fit.
    n = 22
    runner.invoke(main, ["analyze", "--n", "8"])  # first-call imports and caches
    tracemalloc.start()
    try:
        result = runner.invoke(main, ["analyze", "--n", str(n), "--format", "json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert json.loads(result.output)["nonlinearity_equals_weight"] is True
    size = 1 << n
    assert peak < size + 3 * size // 8 + (2 << 20) + (256 << 10)


def test_spectrum_small_degenerate(runner):
    result = runner.invoke(main, ["spectrum", "--n", "3", "--l", "4", "--e", "1", "--format", "json"])
    assert result.exit_code == 0
    record = json.loads(result.output)
    assert record["degenerate"] is True
    assert record["values"] == [6, 2, 2, -2, 2, -2, -2, 2]


def test_spectrum_single_coefficient(runner):
    result = runner.invoke(main, ["spectrum", "--n", "5", "--l", "4", "--at", "0"])
    assert result.exit_code == 0
    assert result.output.strip() == "walsh at 0: 20"
    result = runner.invoke(main, ["spectrum", "--n", "5", "--at", "32"])
    assert result.exit_code == 2


def test_spectrum_bits_rendering(runner):
    result = runner.invoke(main, ["spectrum", "--n", "4", "--at", "3", "--bits"])
    assert result.exit_code == 0
    assert result.output.strip().startswith("walsh at 1100:")


def test_subfn_single_coefficient(runner):
    result = runner.invoke(main, ["subfn", "--i", "0", "--j", "0", "--n", "5", "--at", "2"])
    assert result.exit_code == 0
    assert result.output.strip() == "walsh at 2: 4"


def test_subfn_full_spectrum_csv(runner):
    result = runner.invoke(main, ["subfn", "--i", "1", "--j", "2", "--n", "4", "--format", "csv"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "mask,value"
    assert len(lines) == 17


def _reference_dump(record, values, fmt, n, bits):
    """The full-spectrum output, formatted one row at a time."""
    def mask(c):
        return "".join(str((c >> k) & 1) for k in range(n)) if bits else str(c)

    values = [int(v) for v in values]
    if fmt == "json":
        return json.dumps({**record, "values": values}, separators=(",", ":")) + "\n"
    if fmt == "csv":
        return "mask,value\r\n" + "".join(f"{mask(c)},{v}\r\n" for c, v in enumerate(values))
    lines = [" ".join(f"{k}={v}" for k, v in record.items())]
    if record.get("degenerate"):
        lines.append("note: degenerate (n < l), indices wrap onto repeats")
    lines += [f"{mask(c)} {v}" for c, v in enumerate(values)]
    return "\n".join(lines) + "\n"


def _family_dump(n, l, e):
    spec = MonomialRsbfSpec(n, l, e)
    argv = ["spectrum", "--n", str(n), "--l", str(l), "--e", str(e)]
    record = {"n": n, "l": l, "e": e, "degenerate": spec.degenerate}
    return argv, record, walsh_transform(monomial_rsbf(spec)).values


def _subfn_dump(i, j, n):
    argv = ["subfn", "--i", str(i), "--j", str(j), "--n", str(n)]
    return argv, {"i": i, "j": j, "n": n}, walsh_transform(sub_function(i, j, n)).values


class _Workers:
    """Shares dumps out over 1, 2 and 3 processes in turn (usable_cpus
    patched) and counts the children os.fork makes in this process."""

    def __init__(self, monkeypatch):
        self.monkeypatch, self.forks, fork = monkeypatch, [], os.fork

        def counting():
            pid = fork()
            if pid:
                self.forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting)

    def each(self, dumps: int, pieces: int):
        """Yields W = 1, 2, 3; after each, the ``dumps`` dumps of ``pieces``
        pieces that W ran must have forked min(W, pieces) - 1 children
        each, none at W = 1, and reaped them all."""
        for count in (1, 2, 3):
            self.monkeypatch.setattr(cli_module, "usable_cpus", lambda: count)
            self.forks.clear()
            yield count
            assert len(self.forks) == dumps * (min(count, pieces) - 1)
            assert_no_child()


@pytest.fixture()
def workers(monkeypatch):
    return _Workers(monkeypatch)


DUMPS = {
    "n1": lambda: _family_dump(1, 4, 1),  # values 0 and 2
    "n3-degenerate": lambda: _family_dump(3, 4, 1),  # negatives and the note
    "n9-e2": lambda: _family_dump(9, 4, 2),
    "subfn-n6": lambda: _subfn_dump(1, 2, 6),  # negatives and zeros
    "n17-two-blocks": lambda: _family_dump(17, 4, 1),
}


@pytest.mark.parametrize("bits", [False, True], ids=["decimal", "bits"])
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("dump", list(DUMPS))
def test_full_dump_matches_row_formatter(runner, monkeypatch, tmp_path, workers, dump, fmt, bits):
    argv, record, values = DUMPS[dump]()
    n = argv[argv.index("--n") + 1]
    argv = argv + ["--format", fmt] + (["--bits"] if bits else [])
    expected = _reference_dump(record, values, fmt, int(n), bits).encode("ascii")
    # four pieces of the one-pass spectrum (two at n = 1), so every process
    # takes part; n = 17 keeps the real piece size
    rows = min(cli_module._PIECE_ROWS, max(1, values.size // 4))
    monkeypatch.setattr(cli_module, "_PIECE_ROWS", rows)
    out = tmp_path / "dump"
    for _ in workers.each(dumps=2, pieces=values.size // rows):
        with within(60):
            to_file = runner.invoke(main, argv + ["--out", str(out)])
            to_stdout = runner.invoke(main, argv)
        assert to_file.exit_code == 0
        assert out.read_bytes() == expected
        assert to_stdout.exit_code == 0
        assert to_stdout.stdout_bytes == expected


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_full_dump_blocks_of_any_size(runner, monkeypatch, fmt):
    # 2**5 rows in blocks of 7: a short last block, and one of a single row
    argv, record, values = _family_dump(5, 4, 2)
    expected = _reference_dump(record, values, fmt, 5, True).encode("ascii")
    for rows in (7, 31, 1):
        monkeypatch.setattr(cli_module, "_BLOCK_ROWS", rows)
        result = runner.invoke(main, argv + ["--format", fmt, "--bits"])
        assert result.exit_code == 0
        assert result.stdout_bytes == expected


@pytest.mark.parametrize("bits", [False, True], ids=["decimal", "bits"])
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_full_dump_blocks_of_1_3_7_rows(runner, monkeypatch, tmp_path, workers, fmt, bits):
    # 2**6 rows with negatives and zeros in four pieces of 16: row blocks
    # that divide neither, and the JSON tail after a short last block
    argv, record, values = _subfn_dump(1, 2, 6)
    argv = argv + ["--format", fmt] + (["--bits"] if bits else [])
    expected = _reference_dump(record, values, fmt, 6, bits).encode("ascii")
    monkeypatch.setattr(cli_module, "_PIECE_ROWS", 16)
    for _ in workers.each(dumps=6, pieces=4):
        for rows in (1, 3, 7):
            monkeypatch.setattr(cli_module, "_BLOCK_ROWS", rows)
            out = tmp_path / f"dump-{rows}"
            with within(60):
                to_file = runner.invoke(main, argv + ["--out", str(out)])
                to_stdout = runner.invoke(main, argv)
            assert to_file.exit_code == 0
            assert out.read_bytes() == expected
            assert to_stdout.exit_code == 0
            assert to_stdout.stdout_bytes == expected


# (dump, core._BLOCK_BITS, the block size walsh_pieces then makes)
BLOCKED_DUMPS = {
    "n9": (lambda: _family_dump(9, 4, 1), 3, 8),
    "n10-e3": (lambda: _family_dump(10, 4, 3), 5, 32),
    "subfn-n11": (lambda: _subfn_dump(1, 2, 11), 6, 64),
    "n12-e2": (lambda: _family_dump(12, 4, 2), 4, 64),
}


@pytest.mark.parametrize("bits", [False, True], ids=["decimal", "bits"])
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("dump", list(BLOCKED_DUMPS))
def test_full_dump_blocked_route(runner, monkeypatch, tmp_path, workers, dump, fmt, bits):
    # the blocked route of walsh_pieces at small arities, one piece a
    # block, cut into rows of 1, 3, 7 and _BLOCK_ROWS, so block and row
    # edges do not line up
    make, block_bits, block_size = BLOCKED_DUMPS[dump]
    argv, record, values = make()
    n = int(argv[argv.index("--n") + 1])
    argv = argv + ["--format", fmt] + (["--bits"] if bits else [])
    expected = _reference_dump(record, values, fmt, n, bits).encode("ascii")
    monkeypatch.setattr(core, "_BLOCKED_ABOVE", 8)
    monkeypatch.setattr(core, "_BLOCK_BITS", block_bits)
    sizes = set()  # the blocks this process makes; children make the others

    def spy(table, rows):
        span, piece = core.walsh_pieces(table, rows)

        def made(offset):
            block = piece(offset)
            sizes.add(block.size)
            return block

        return span, made

    monkeypatch.setattr(cli_module, "walsh_pieces", spy)
    for _ in workers.each(dumps=5, pieces=values.size // block_size):
        for rows in (1, 3, 7, 1 << 13):
            monkeypatch.setattr(cli_module, "_BLOCK_ROWS", rows)
            out = tmp_path / f"dump-{rows}"
            with within(60):
                assert runner.invoke(main, argv + ["--out", str(out)]).exit_code == 0
            assert out.read_bytes() == expected
        # the sink does not depend on the row size, so stdout is read once, at
        # the last row size; the small row sizes at n = 12 cost most of the test
        with within(60):
            to_stdout = runner.invoke(main, argv)
        assert to_stdout.exit_code == 0
        assert to_stdout.stdout_bytes == expected
    assert sizes == {block_size}


# every digit count from 1 to 9, zero, and both sides of each four-digit
# group boundary, up to |W| = 2**28
EDGE_VALUES = [0, 1, -1, 9, -10, 999, -1000, 9999, 10000, -10001, 99999999, -100000000,
               123456789, -(1 << 28), 1 << 28, 7]


def _pieces(values, *cuts):
    """``values`` as _render_spectrum pieces, cut before each of ``cuts``."""
    bounds = [0, *cuts, len(values)]
    return [(a, lambda a=a, b=b: values[a:b]) for a, b in zip(bounds, bounds[1:])]


@pytest.mark.parametrize("rows", [1, 3, 7, 1 << 13])
@pytest.mark.parametrize("bits", [False, True], ids=["decimal", "bits"])
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_dump_digits_across_group_boundaries(monkeypatch, tmp_path, workers, fmt, bits, rows):
    # the value column is as wide as 2**n: each n renders the edge values
    # its bound covers and both ends of the bound, in three pieces
    monkeypatch.setattr(cli_module, "_BLOCK_ROWS", rows)
    for _ in workers.each(dumps=3, pieces=3):
        for n in (4, 14, 28):
            values = [v for v in EDGE_VALUES if abs(v) <= 1 << n] + [1 << n, -(1 << n)]
            values = np.array(values, dtype=np.int32)
            record = {"n": n}
            out = tmp_path / f"dump-{n}"
            pieces = _pieces(values, 3, 5)
            with within(60):
                cli_module._render_spectrum(record, pieces, fmt, n, bits, str(out))
            expected = _reference_dump(record, values, fmt, n, bits).encode("ascii")
            assert out.read_bytes() == expected


def test_dump_block_error_reaches_the_caller(runner, monkeypatch, tmp_path):
    real = cli_module._block_renderer

    def failing(*args):
        render = real(*args)

        def block(start, values):
            if start >= 6:
                raise RuntimeError("block failed")
            return render(start, values)

        return block

    monkeypatch.setattr(cli_module, "_BLOCK_ROWS", 3)
    monkeypatch.setattr(cli_module, "_block_renderer", failing)
    argv, record, values = _family_dump(5, 4, 2)
    out = tmp_path / "dump"
    result = runner.invoke(main, argv + ["--format", "csv", "--out", str(out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, RuntimeError)
    # the file holds the header and the two blocks before the failing one
    written = out.read_bytes()
    assert _reference_dump(record, values, "csv", 5, False).encode("ascii").startswith(written)
    assert written.count(b"\r\n") == 1 + 6


def test_dump_stream_error_reaches_the_caller(tmp_path):
    # a spectrum piece that fails after two were written
    _, record, values = _family_dump(5, 4, 2)

    def failed():
        raise RuntimeError("transform failed")

    pieces = _pieces(values, 8, 16)[:2] + [(16, failed)]
    out = tmp_path / "dump"
    with within(60), pytest.raises(RuntimeError, match="transform failed"):
        cli_module._render_spectrum(record, pieces, "csv", 5, False, str(out))
    written = out.read_bytes()
    assert _reference_dump(record, values, "csv", 5, False).encode("ascii").startswith(written)
    assert written.count(b"\r\n") == 1 + 16


def _render_in_children(monkeypatch, tmp_path, act, workers=2):
    """A CSV dump of the n = 5 member in pieces of 6 rows over ``workers``
    processes, where the render of each row block from mask 6 on, in a
    child only, first calls act(); returns the file's path and the dump's
    reference bytes."""
    parent, real = os.getpid(), cli_module._block_renderer

    def acting(*args):
        render = real(*args)

        def block(start, values):
            if start >= 6 and os.getpid() != parent:
                act()
            return render(start, values)

        return block

    monkeypatch.setattr(cli_module, "_BLOCK_ROWS", 3)
    monkeypatch.setattr(cli_module, "_block_renderer", acting)
    monkeypatch.setattr(cli_module, "usable_cpus", lambda: workers)
    _, record, values = _family_dump(5, 4, 2)
    out = tmp_path / "dump"
    expected = _reference_dump(record, values, "csv", 5, False).encode("ascii")
    pieces = _pieces(values, *range(6, 32, 6))
    return lambda: cli_module._render_spectrum(record, pieces, "csv", 5, False, str(out)), out, expected


def test_dump_child_error_reaches_the_caller(monkeypatch, tmp_path, reaped):
    def fail():
        raise LookupError("piece failed")

    dump, out, expected = _render_in_children(monkeypatch, tmp_path, fail)
    with within(60), pytest.raises(LookupError, match="piece failed") as caught:
        dump()
    # the child's traceback comes along as the error's cause
    cause = str(caught.value.__cause__)
    assert cause.startswith("piece 1 raised in its child:\nTraceback")
    assert "in fail" in cause and cause.endswith("LookupError: piece failed\n")
    # the rows before piece 1, the first the child renders
    written = out.read_bytes()
    assert expected.startswith(written)
    assert written.count(b"\r\n") == 1 + 6


def test_dump_killed_child_is_an_error(monkeypatch, tmp_path, reaped):
    dump, out, expected = _render_in_children(
        monkeypatch, tmp_path, lambda: os.kill(os.getpid(), signal.SIGKILL))
    with within(60), pytest.raises(RuntimeError, match="wait status 9 .exit code -9"):
        dump()
    assert out.read_bytes() == expected[: expected.index(b"6,")]


@pytest.mark.parametrize("workers", [2, 3])
def test_dump_interrupt_kills_and_reaps_the_children(monkeypatch, tmp_path, reaped, workers):
    # a child left running sleeps once, then dies, so a cleanup that does
    # not kill holds this test up 60 s and fails it, instead of hanging
    # for a sleep per block
    hang = lambda: (time.sleep(60), os._exit(1))
    dump, _, _ = _render_in_children(monkeypatch, tmp_path, hang, workers)
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt), within(0.5, KeyboardInterrupt):
        dump()
    assert time.perf_counter() - t0 < 30


@pytest.mark.parametrize("fmt, bits", [("json", False), ("csv", False), ("text", True)],
                         ids=["json", "csv", "text-bits"])
def test_dump_render_working_memory(tmp_path, fmt, bits):
    # NumPy reports its buffers to tracemalloc.  The renderer this one
    # replaced cost about 1.6 MiB of resident memory above the 16 MiB
    # spectrum at n = 22 (49.7 MiB after the transform, 51.3 MiB after the
    # JSON render), so the whole render stays under that.  Measured at
    # n = 20: 0.67 MiB (json), 0.95 MiB (csv), 1.24 MiB (text --bits).  A
    # |W| copy of the spectrum (4 MiB at n = 20) does not fit, nor, in CSV
    # and text, does compacting a whole block at once (np.compress's index
    # of the kept bytes, 8 bytes each).
    n = 20
    _, record, values = _family_dump(n, 4, 1)
    tracemalloc.start()
    try:
        cli_module._render_spectrum(record, _pieces(values), fmt, n, bits, str(tmp_path / "dump"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * 2**20


def test_full_dump_working_memory(runner, tmp_path):
    # NumPy reports its buffers to tracemalloc.  A whole dump at n = 22,
    # transform and render, holds the int8 store (4 MiB), the table's
    # packed forms, one int32 block and one tile (1 MiB each) and the
    # renderer's buffers.  The int32 spectrum alone is 16 MiB.  Measured:
    # 7.2 MiB.
    out = tmp_path / "dump.json"
    runner.invoke(main, ["spectrum", "--n", "8", "--format", "json"])  # first-call imports
    tracemalloc.start()
    try:
        with within(60):
            result = runner.invoke(main, ["spectrum", "--n", "22", "--format", "json", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0
    with out.open("rb") as fh:
        head = fh.read(64)
    assert head.startswith(b'{"n":22,"l":4,"e":1,"degenerate":false,"values":[')
    assert peak < 9 * 2**20


def test_json_dump_round_trips(runner):
    argv, record, values = _family_dump(12, 4, 3)
    result = runner.invoke(main, argv + ["--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output) == {**record, "values": values.tolist()}


def test_piped_stdout_equals_out_file(tmp_path):
    # the real process stdout, not the test runner's capture
    out = tmp_path / "dump.csv"
    argv = [sys.executable, "-m", "rsbf", "subfn", "--i", "3", "--j", "1", "--n", "8",
            "--format", "csv", "--bits"]
    piped = subprocess.run(argv, capture_output=True, timeout=60)
    written = subprocess.run(argv + ["--out", str(out)], capture_output=True, timeout=60)
    assert piped.returncode == written.returncode == 0
    assert written.stdout == b""
    assert piped.stdout == out.read_bytes()
    assert piped.stdout.startswith(b"mask,value\r\n00000000,")


def test_usage_errors_exit_2(runner):
    assert runner.invoke(main, ["analyze"]).exit_code == 2  # missing --n
    assert runner.invoke(main, ["analyze", "--n", "8", "--l", "1"]).exit_code == 2
    assert runner.invoke(main, ["analyze", "--n", "8", "--e", "0"]).exit_code == 2
    assert runner.invoke(main, ["analyze", "--n", "25"]).exit_code == 2  # above default cap
    assert runner.invoke(main, ["subfn", "--i", "5", "--j", "0", "--n", "8"]).exit_code == 2
    assert runner.invoke(main, ["check", "bound", "--n-range", "9..4"]).exit_code == 2
    assert runner.invoke(main, ["check", "bound", "--n-range", "abc"]).exit_code == 2
    assert runner.invoke(main, ["check", "nosuch"]).exit_code == 2
    assert runner.invoke(main, ["check", "theorem", "--l", "1"]).exit_code == 2
    # a window the chosen suites do not read, or one below a suite's
    # domain, is refused with the harness's own message before any suite runs
    for argv, message in [
        (["check", "all", "--n-range", "4..5"],
         "suites ['factor', 'table1', 'table2'] read no n_range window"),
        (["check", "all", "--e-range", "1..2"],
         "suites ['bound', 'eq23', 'eq26', 'factor', 'lemma21', 'lemma22', 'table1', 'table2', "
         "'thm24'] read no e_range window"),
        (["check", "all", "--l", "5"],
         "suites ['bound', 'counterexample', 'cubic', 'eq23', 'eq26', 'factor', 'lemma21', "
         "'lemma22', 'table1', 'table2', 'thm24'] read no l window"),
        (["check", "factor", "--n-range", "10..12"], "suites ['factor'] read no n_range window"),
        (["check", "table1", "--l", "4"], "suites ['table1'] read no l window"),
        (["check", "cubic", "--l", "3"], "suites ['cubic'] read no l window"),
        (["check", "bound", "--e-range", "1..2"], "suites ['bound'] read no e_range window"),
        (["check", "bound", "--n-range", "0..2"], "bound takes n_range from 4 up, got 0..2"),
        (["check", "counterexample", "--n-range", "2..3", "--e-range", "0..1"],
         "counterexample takes e_range from 1 up, got 0..1"),
        (["check", "eq26", "--n-range", "7..9"], "eq26 takes n_range from 8 up, got 7..9"),
        (["check", "lemma21", "--n-range", "4..8"], "lemma21 takes n_range from 8 up, got 4..8"),
        (["check", "eq23", "--n-range", "6..6"], "eq23 takes n_range from 7 up, got 6..6"),
        (["check", "thm24", "--n-range", "4..8"], "thm24 takes n_range from 8 up, got 4..8"),
        (["check", "theorem", "--n-range", "0..3", "--e-range", "1..1"],
         "theorem takes n_range from 1 up, got 0..3"),
        (["check", "conjecture", "--l", "1"], "conjecture takes l from 2 up, got 1"),
    ]:
        result = runner.invoke(main, argv)
        assert result.exit_code == 2, argv
        assert f"Error: {message}" in result.output, argv
        assert "Traceback" not in result.output


def test_max_n_is_an_adjustable_cap(runner):
    blocked = runner.invoke(main, ["analyze", "--n", "12", "--max-n", "10"])
    assert blocked.exit_code == 2
    allowed = runner.invoke(main, ["analyze", "--n", "12", "--max-n", "12"])
    assert allowed.exit_code == 0


def test_env_vars_supply_defaults(runner):
    result = runner.invoke(
        main, ["analyze"], env={"RSBF_N": "8", "RSBF_FORMAT": "json"}
    )
    assert result.exit_code == 0
    assert json.loads(result.output)["weight"] == 40


def test_out_writes_file(runner, tmp_path):
    out = tmp_path / "record.json"
    result = runner.invoke(
        main, ["analyze", "--n", "8", "--format", "json", "--out", str(out)]
    )
    assert result.exit_code == 0
    assert json.loads(out.read_text())["weight"] == 40


def test_tty_guard_blocks_large_spectra(runner, monkeypatch):
    monkeypatch.setattr(cli_module, "_stdout_is_tty", lambda: True)
    blocked = runner.invoke(main, ["spectrum", "--n", "17"])
    assert blocked.exit_code == 2
    assert "--force" in blocked.output

    with within(60):
        forced = runner.invoke(main, ["spectrum", "--n", "17", "--force", "--format", "json"])
    assert forced.exit_code == 0
    assert len(json.loads(forced.output)["values"]) == 1 << 17


def test_tty_guard_inactive_when_piped(runner, monkeypatch):
    monkeypatch.setattr(cli_module, "_stdout_is_tty", lambda: False)
    with within(60):
        result = runner.invoke(main, ["spectrum", "--n", "17", "--format", "json"])
    assert result.exit_code == 0


def test_check_bound_stream(runner):
    result = runner.invoke(main, ["check", "bound", "--n-range", "4..6"])
    assert result.exit_code == 0
    records = [json.loads(line) for line in result.output.strip().splitlines()]
    assert [r["params"]["n"] for r in records] == [4, 5, 6]
    assert all(r["status"] == "pass" for r in records)


def test_check_theorem_window_hits_degenerate_stride(runner):
    result = runner.invoke(
        main, ["check", "theorem", "--n-range", "4..5", "--workers", "1"]
    )
    assert result.exit_code == 1
    records = [json.loads(line) for line in result.output.strip().splitlines()]
    failing = [r["params"] for r in records if r["status"] == "fail"]
    assert failing == [{"n": 4, "l": 4, "e": 4}, {"n": 5, "l": 4, "e": 5}]


def test_check_theorem_clean_window_exits_zero(runner):
    result = runner.invoke(
        main,
        ["check", "theorem", "--n-range", "4..6", "--e-range", "1..3", "--workers", "1"],
    )
    assert result.exit_code == 0


def test_check_counterexample_exit_zero_on_find(runner):
    result = runner.invoke(
        main, ["check", "counterexample", "--n-range", "2..6", "--workers", "1"]
    )
    assert result.exit_code == 0
    last = json.loads(result.output.strip().splitlines()[-1])
    assert last["params"].get("id") == "summary"
    assert last["status"] == "pass"


def test_check_counterexample_reports_n1(runner):
    # one variable: x0 * x0 = x0, weight 1 and nonlinearity 0, a finding
    result = runner.invoke(
        main, ["check", "counterexample", "--n-range", "1..2", "--e-range", "1..1", "--workers", "1"]
    )
    assert result.exit_code == 0
    records = [json.loads(line) for line in result.output.strip().splitlines()]
    assert [r["params"] for r in records] == [
        {"n": 1, "l": 2, "e": 1}, {"n": 2, "l": 2, "e": 1}, {"l": 2, "id": "summary"},
    ]
    assert records[0]["status"] == "fail"
    assert records[0]["witnesses"] == [["weight-vs-nonlinearity", 1, 0], ["peak:c=1", 0, 2]]
    assert records[2]["status"] == "pass"


def test_check_table_csv_artifact(runner, tmp_path):
    out = tmp_path / "table.csv"
    result = runner.invoke(
        main, ["check", "table1", "--format", "csv", "--out", str(out)]
    )
    assert result.exit_code == 0
    header = out.read_text().splitlines()[0]
    assert header == "n,4,5,6,7,8,9,10,11"
    no_out = runner.invoke(main, ["check", "table1", "--format", "csv"])
    assert no_out.exit_code == 2


def test_check_csv_rejected_for_non_tables(runner):
    result = runner.invoke(main, ["check", "bound", "--format", "csv"])
    assert result.exit_code == 2


def test_check_out_writes_jsonl(runner, tmp_path):
    out = tmp_path / "reports.jsonl"
    result = runner.invoke(
        main, ["check", "factor", "--out", str(out)]
    )
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert all(json.loads(line)["check"] == "factor" for line in lines)
    for line in lines:
        parsed = json.loads(line)
        assert list(parsed.keys()) == ["check", "params", "status", "witnesses", "elapsed_ms"]


def _without_elapsed(stdout):
    records = [json.loads(line) for line in stdout.splitlines()]
    for record in records:
        del record["elapsed_ms"]
    return records


def test_check_name_is_its_slice_of_check_all(runner, tmp_path):
    small = ["--max-n", "10", "--workers", "1"]
    out = tmp_path / "all.jsonl"
    everything = runner.invoke(main, ["check", "all", *small, "--out", str(out)])
    assert out.read_text() == everything.stdout
    singles = []
    for name in SUITES:
        result = runner.invoke(main, ["check", name, *small])
        records = _without_elapsed(result.stdout)
        reports = [VerificationReport(**r) for r in records]
        assert result.exit_code == RunResult(reports).exit_code, name
        singles += records
    assert singles == _without_elapsed(everything.stdout)
    reports = [VerificationReport(**r) for r in singles]
    assert everything.exit_code == RunResult(reports).exit_code == 1


def test_check_lemma_alone_is_its_slice_of_pooled_check_all(runner):
    # on a pool, check all runs both identity grids as one task and one
    # pass; each grid run alone, one check_identity_grid call at a time,
    # prints exactly its lines of that stream
    with within(120):
        pooled = runner.invoke(main, ["check", "all", "--workers", "2"])
    assert isinstance(pooled.exception, SystemExit)  # exit 1, not an error or a timeout
    # every fail is the parity boundary or a quadratic finding
    assert "36 fail (19 parity boundary, 17 findings, 0 other)" in pooled.stderr
    everything = _without_elapsed(pooled.stdout)
    for name in ("lemma21", "lemma22"):
        result = runner.invoke(main, ["check", name])
        assert result.exit_code == 0
        alone = _without_elapsed(result.stdout)
        assert len(alone) == 9
        assert alone == [record for record in everything if record["check"] == name]


def test_check_l_sets_only_the_degree(runner):
    result = runner.invoke(
        main, ["check", "theorem", "--l", "2", "--n-range", "2..4", "--workers", "1"]
    )
    assert result.exit_code == 1
    records = [json.loads(line) for line in result.stdout.splitlines()]
    assert {(r["check"], r["params"]["l"]) for r in records} == {("theorem", 2)}
    assert len(records) == 6  # e = 1..2 at each n, no counterexample summary
    noted = runner.invoke(
        main, ["check", "conjecture", "--l", "7", "--n-range", "7..7", "--e-range", "1..1"]
    )
    assert "degree 7 is exploratory" in noted.stderr
    assert json.loads(noted.stdout)["params"] == {"n": 7, "l": 7, "e": 1}


def test_suite_names_agree_with_registry():
    names = list(SUITES) + ["all"]
    assert list(main.commands["check"].params[0].type.choices) == names
    section = README.read_text(encoding="utf-8").split("### Verification suites")[1]
    rows = re.findall(r"^\| `([a-z0-9]+)` ", section, flags=re.M)
    assert rows == names


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--n", "6"],
        ["spectrum", "--n", "6", "--at", "5"],
        ["subfn", "--i", "1", "--j", "2", "--n", "6", "--at", "5", "--bits"],
    ],
    ids=["analyze", "spectrum-at", "subfn-at"],
)
def test_single_record_stdout_equals_out_file(runner, tmp_path, argv, fmt):
    out = tmp_path / "record"
    to_file = runner.invoke(main, argv + ["--format", fmt, "--out", str(out)])
    to_stdout = runner.invoke(main, argv + ["--format", fmt])
    assert to_file.exit_code == to_stdout.exit_code == 0
    assert to_file.stdout_bytes == b""
    data = out.read_bytes()
    assert to_stdout.stdout_bytes == data
    assert data.endswith(b"\r\n" if fmt == "csv" else b"\n") and not data.endswith(b"\n\n")


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "rsbf", "analyze", "--n", "6", "--format", "json"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 6
