"""Command line front end.

Four commands: analyze (one family member's headline numbers), spectrum
(coefficients, single or full), subfn (same for the chain variants), and
check (the verification suites, streamed as JSON lines).

Every option also reads an RSBF_* environment variable, so scripted runs
can pin defaults without repeating flags.
"""

from __future__ import annotations

import json
import sys

import click

from .core import (
    DEFAULT_MAX_N,
    HARD_MAX_N,
    SpectrumPeaks,
    walsh_at,
    walsh_blocks,
    weight,
)
from .families import MonomialRsbfSpec, monomial_rsbf, sub_function
from .harness import (
    SUITES,
    TABLE_SUITES,
    HarnessConfig,
    run_all,
    suite_windows,
    window_floor,
)
from .report import write_jsonl


class RangeType(click.ParamType):
    """Inclusive integer window written A..B (a bare integer means A..A)."""

    name = "range"

    def convert(self, value, param, ctx):
        if isinstance(value, tuple):
            return value
        text = str(value)
        try:
            if ".." in text:
                lo_text, hi_text = text.split("..", 1)
                lo, hi = int(lo_text), int(hi_text)
            else:
                lo = hi = int(text)
        except ValueError:
            self.fail(f"{text!r} is not A..B with integer endpoints", param, ctx)
        if lo > hi:
            self.fail(f"empty window {text!r}", param, ctx)
        return (lo, hi)


RANGE = RangeType()


def _mask_text(c: int, n: int, bits: bool) -> str:
    if bits:
        return "".join(str((c >> k) & 1) for k in range(n))
    return str(c)


def _family_spec(n: int, l: int, e: int, max_n: int) -> MonomialRsbfSpec:
    if n > max_n:
        raise click.UsageError(
            f"n={n} exceeds the cap of {max_n}; raise --max-n (hard cap {HARD_MAX_N})"
        )
    try:
        return MonomialRsbfSpec(n, l, e)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def _emit(record: dict, fmt: str, text: str, out: str | None) -> None:
    """Write one record as JSON, as CSV, or as ``text``, ending in one line
    end, to the file ``out`` or to stdout; both get the same bytes."""
    if fmt == "json":
        text = _record_json(record)
    elif fmt == "csv":
        text = _record_csv(record)
    if not text.endswith("\n"):
        text += "\n"
    if out is not None:
        with open(out, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _record_json(record: dict) -> str:
    return json.dumps(record, separators=(",", ":"), default=int)


def _record_csv(record: dict) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(record.keys())
    writer.writerow(record.values())
    return buf.getvalue()


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
def main() -> None:
    """Truth tables, Walsh spectra, and verification suites for monomial
    rotation symmetric Boolean functions."""


def _common_options(fn):
    fn = click.option(
        "--format", "fmt", envvar="RSBF_FORMAT",
        type=click.Choice(["text", "json", "csv"]), default="text", show_default=True,
        help="Output rendering.",
    )(fn)
    fn = click.option(
        "--out", envvar="RSBF_OUT", type=click.Path(dir_okay=False, writable=True),
        default=None, help="Write the output to a file instead of stdout.",
    )(fn)
    fn = click.option(
        "--max-n", envvar="RSBF_MAX_N", type=click.IntRange(1, HARD_MAX_N),
        default=DEFAULT_MAX_N, show_default=True,
        help="Refuse arities above this cap.",
    )(fn)
    fn = click.option(
        "--bits", envvar="RSBF_BITS", is_flag=True, default=False,
        help="Render masks as bit vectors, lowest-index variable first.",
    )(fn)
    return fn


@main.command()
@click.option("--n", envvar="RSBF_N", type=int, required=True, help="Number of variables.")
@click.option("--l", envvar="RSBF_L", type=int, default=4, show_default=True, help="Monomial degree.")
@click.option("--e", envvar="RSBF_E", type=int, default=1, show_default=True, help="Index stride.")
@_common_options
def analyze(n, l, e, fmt, out, max_n, bits):
    """Weight, nonlinearity, and spectral peaks of one family member."""
    spec = _family_spec(n, l, e, max_n)
    tbl = monomial_rsbf(spec)
    peaks = SpectrumPeaks.of(n, walsh_blocks(tbl))
    mask_signed, value_signed, mask_abs, value_abs = peaks.argmax()
    wt = weight(tbl)
    nl = (tbl.size - value_signed) // 2
    record = {
        "n": n,
        "l": l,
        "e": e,
        "degenerate": spec.degenerate,
        "weight": wt,
        "nonlinearity": nl,
        "walsh_at_zero": peaks.zero,
        "max_walsh": value_signed,
        "max_walsh_mask": _mask_text(int(mask_signed), n, bits) if bits else int(mask_signed),
        "max_abs_walsh": value_abs,
        "max_abs_walsh_mask": _mask_text(int(mask_abs), n, bits) if bits else int(mask_abs),
        "nonlinearity_equals_weight": nl == wt,
        "peak_at_zero": value_abs <= peaks.zero,
    }
    lines = [f"family member: n={n} l={l} e={e}"]
    if spec.degenerate:
        lines.append("note: degenerate (n < l), indices wrap onto repeats")
    lines += [
        f"weight             {record['weight']}",
        f"nonlinearity       {record['nonlinearity']}",
        f"walsh at zero      {record['walsh_at_zero']}",
        f"max walsh          {record['max_walsh']} at mask {record['max_walsh_mask']}",
        f"max |walsh|        {record['max_abs_walsh']} at mask {record['max_abs_walsh_mask']}",
        f"nonlinearity == weight  {record['nonlinearity_equals_weight']}",
        f"peak at zero            {record['peak_at_zero']}",
    ]
    _emit(record, fmt, "\n".join(lines), out)


def _stdout_is_tty() -> bool:
    return sys.stdout.isatty()


def _full_spectrum_guard(n: int, out: str | None, force: bool) -> None:
    if n > 16 and out is None and not force and _stdout_is_tty():
        raise click.UsageError(
            f"full spectrum for n={n} is {1 << n} lines; use --out, or --force to dump to the terminal"
        )


# Full dumps are rendered and written this many rows at a time, so the whole
# text never exists at once.  A block holds its byte matrix and keep mask (a
# byte a column each), 24 bytes a row of integer scratch, its output and the
# compaction's index of at most _COMPACT_BYTES entries: about 0.7 MiB for a
# JSON dump and 1.25 MiB for text --bits at n = 20.  Blocks of 2**13 rows
# render as fast as 2**14 or 2**15 (measured) in less memory.
_BLOCK_ROWS = 1 << 13
_COMPACT_BYTES = 1 << 15


def _group_tables():
    """ASCII text of every four-digit group, as one uint32 word per group.

    Rows 0..9999 keep a group's leading zeros (it has digits above it);
    rows 10000..19999 are the top group of a number, with its leading zeros
    as 0 bytes.  The first table is for the units group, whose top group 0 is
    "0"; in the second an empty top group is four 0 bytes.
    """
    import numpy as np

    digits = np.arange(ord("0"), ord("0") + 10, dtype=np.uint8)
    text = np.empty((2, 10, 10, 10, 10, 4), dtype=np.uint8)
    for k in range(4):
        text[..., k] = digits.reshape([10 if j == k else 1 for j in range(4)])
    top = text[1]
    top[0, ..., 0] = 0
    top[0, 0, ..., 1] = 0
    top[0, 0, 0, :, 2] = 0
    units = text.view(np.uint32).reshape(-1)
    upper = units.copy()
    upper[10000] = 0
    return units, upper


def _block_renderer(fmt: str, n: int, bits: bool):
    """A function ``render(start, block)`` that returns the bytes of the
    rows of masks ``start`` .. ``start + len(block) - 1``, whose values are
    the int32 array ``block`` of at most ``_BLOCK_ROWS`` entries, as a list
    of uint8 arrays.

    A block is one uint8 matrix of mask, separator, sign, value and line-end
    columns, numbers right-aligned behind 0 bytes that the compaction drops.
    The matrix, its keep mask and the integer scratch vectors are allocated
    here, once, with the constant columns filled in, so a block allocates
    only its output, and nothing of ``block`` is kept.
    """
    import numpy as np

    if fmt == "json":
        # rows ",v"; the row of mask 0 drops its comma
        mask_cols, sep, end = 0, b",", b""
    else:
        mask_cols = n if bits else 4 * -(-len(str((1 << n) - 1)) // 4)
        sep, end = (b",", b"\r\n") if fmt == "csv" else (b" ", b"\n")
    sign = mask_cols + len(sep)
    # |W| <= 2**n: every value is a signed count of the 2**n inputs
    value_cols = 4 * -(-len(str(1 << n)) // 4)
    cols = sign + 1 + value_cols + len(end)
    rows = min(_BLOCK_ROWS, 1 << n)
    m = np.zeros((rows, cols), dtype=np.uint8)
    m[:, mask_cols:sign] = np.frombuffer(sep, dtype=np.uint8)
    m[:, cols - len(end) :] = np.frombuffer(end, dtype=np.uint8)
    keep = np.empty(rows * cols, dtype=bool)
    mag, quo, word = (np.empty(rows, dtype=np.uint32) for _ in range(3))
    idx = np.empty(rows, dtype=np.intp)
    offsets = np.arange(rows, dtype=np.uint32)
    tables = _group_tables()

    def groups(first: int, width: int) -> list:
        """uint32 views of a field's 4-column groups, units group first."""
        starts = range(first + width - 4, first - 1, -4)
        return [m[:, c : c + 4].view(np.uint32)[:, 0] for c in starts]

    value_groups = groups(sign + 1, value_cols)
    mask_groups = groups(0, mask_cols) if fmt != "json" and not bits else []

    def decimal(r, field: list) -> None:
        """Write the uint32 magnitudes ``r`` (changed) right-aligned into
        ``field``, the groups of one field."""
        q, i, w = quo[: r.size], idx[: r.size], word[: r.size]
        for g, group in enumerate(field):
            np.floor_divide(r, 10000, out=q)
            np.multiply(q, 10000, out=i)
            np.maximum(i, 10000, out=i)
            # the group's value, less 10000 in a number's top group:
            # mode="wrap" reads those from the tables' second half
            np.subtract(r, i, out=i)
            np.take(tables[g > 0], i, out=w, mode="wrap")
            group[: r.size] = w
            r, q = q, r

    def render(start: int, block) -> list:
        size = block.size
        r = mag[:size]
        if fmt != "json":
            np.add(offsets[:size], start, out=r)  # the masks
            if bits:
                q = quo[:size]
                for k in range(n):
                    np.right_shift(r, k, out=q)
                    np.bitwise_and(q, 1, out=q)
                    np.add(q, ord("0"), out=m[:size, k], casting="unsafe")
            else:
                decimal(r, mask_groups)
        minus = keep[:size]  # scratch until the keep mask is made
        np.less(block, 0, out=minus)
        np.multiply(minus.view(np.uint8), ord("-"), out=m[:size, sign])
        # |W| <= 2**HARD_MAX_N, so abs cannot overflow and uint32 holds it
        np.abs(block, out=r.view(np.int32))
        decimal(r, value_groups)
        flat = m[:size].reshape(-1)
        kept = keep[: flat.size]
        np.not_equal(flat, 0, out=kept)
        if fmt == "json" and start == 0:
            kept[0] = False  # the first comma; "[" comes before it
        # np.compress holds an intp index of the bytes it keeps, 8 bytes
        # each, so it goes over the block _COMPACT_BYTES at a time
        return [
            np.compress(kept[k : k + _COMPACT_BYTES], flat[k : k + _COMPACT_BYTES])
            for k in range(0, flat.size, _COMPACT_BYTES)
        ]

    return render


def _render_spectrum(record: dict, blocks, fmt: str, n: int, bits: bool, out: str | None) -> None:
    """Write a full spectrum to the file ``out``, or to stdout when None.

    ``blocks`` yields (offset, int32 block) pairs in mask order, as
    ``walsh_blocks`` does; each block is written before the next is asked
    for, so a buffer the stream reuses is never read once overwritten.
    Nothing holds the whole spectrum.  Rows are rendered and
    written ``_BLOCK_ROWS`` at a time.  The bytes equal per-row ``str``
    formatting: JSON rows ``,v`` (the first has no comma), CSV rows
    ``c,v`` ending in ``\\r\\n`` as the csv module writes them, text rows
    ``c v``.
    """
    import contextlib

    if fmt == "json":
        head = _record_json(record)[:-1] + ',"values":['
    elif fmt == "csv":
        head = "mask,value\r\n"
    else:
        head = " ".join(f"{k}={v}" for k, v in record.items()) + "\n"
        if record.get("degenerate"):
            head += "note: degenerate (n < l), indices wrap onto repeats\n"
    render = _block_renderer(fmt, n, bits)

    if out is not None:
        sink = open(out, "wb")
    else:  # stdout's byte stream, left open
        sink = contextlib.nullcontext(click.get_binary_stream("stdout"))
    with sink as fh:
        fh.write(head.encode("ascii"))
        for offset, block in blocks:
            for k in range(0, block.size, _BLOCK_ROWS):
                for piece in render(offset + k, block[k : k + _BLOCK_ROWS]):
                    fh.write(piece)
        if fmt == "json":
            fh.write(b"]}\n")
        fh.flush()


@main.command()
@click.option("--n", envvar="RSBF_N", type=int, required=True, help="Number of variables.")
@click.option("--l", envvar="RSBF_L", type=int, default=4, show_default=True, help="Monomial degree.")
@click.option("--e", envvar="RSBF_E", type=int, default=1, show_default=True, help="Index stride.")
@click.option("--at", envvar="RSBF_AT", type=int, default=None,
              help="Only the coefficient at this mask, by direct summation.")
@click.option("--force", envvar="RSBF_FORCE", is_flag=True, default=False,
              help="Dump large spectra to a terminal anyway.")
@_common_options
def spectrum(n, l, e, at, force, fmt, out, max_n, bits):
    """Walsh spectrum of one family member (all masks, or one with --at)."""
    spec = _family_spec(n, l, e, max_n)
    tbl = monomial_rsbf(spec)
    if at is not None:
        if not 0 <= at < tbl.size:
            raise click.UsageError(f"--at {at} is outside 0..{tbl.size - 1}")
        record = {
            "n": n, "l": l, "e": e, "degenerate": spec.degenerate,
            "at": _mask_text(at, n, bits) if bits else at,
            "value": walsh_at(tbl, at),
        }
        note = " (degenerate: n < l)" if spec.degenerate else ""
        _emit(record, fmt, f"walsh at {record['at']}: {record['value']}{note}", out)
        return
    _full_spectrum_guard(n, out, force)
    record = {"n": n, "l": l, "e": e, "degenerate": spec.degenerate}
    _render_spectrum(record, walsh_blocks(tbl), fmt, n, bits, out)


@main.command()
@click.option("--i", "i", envvar="RSBF_I", type=click.IntRange(0, 3), required=True,
              help="Count of trailing products folded in.")
@click.option("--j", "j", envvar="RSBF_J", type=click.IntRange(0, 3), required=True,
              help="Low-end correction level.")
@click.option("--n", envvar="RSBF_N", type=int, required=True, help="Number of variables.")
@click.option("--at", envvar="RSBF_AT", type=int, default=None,
              help="Only the coefficient at this mask, by direct summation.")
@click.option("--force", envvar="RSBF_FORCE", is_flag=True, default=False,
              help="Dump large spectra to a terminal anyway.")
@_common_options
def subfn(i, j, n, at, force, fmt, out, max_n, bits):
    """Walsh spectrum of one chain variant (all masks, or one with --at)."""
    if n > max_n:
        raise click.UsageError(
            f"n={n} exceeds the cap of {max_n}; raise --max-n (hard cap {HARD_MAX_N})"
        )
    try:
        tbl = sub_function(i, j, n)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    if at is not None:
        if not 0 <= at < tbl.size:
            raise click.UsageError(f"--at {at} is outside 0..{tbl.size - 1}")
        record = {
            "i": i, "j": j, "n": n,
            "at": _mask_text(at, n, bits) if bits else at,
            "value": walsh_at(tbl, at),
        }
        _emit(record, fmt, f"walsh at {record['at']}: {record['value']}", out)
        return
    _full_spectrum_guard(n, out, force)
    record = {"i": i, "j": j, "n": n}
    _render_spectrum(record, walsh_blocks(tbl), fmt, n, bits, out)


def _stream_reports(reports, fmt: str, out: str | None) -> None:
    if fmt == "text":
        lines = []
        for r in reports:
            params = " ".join(f"{k}={v}" for k, v in r.params.items())
            head = f"{r.status.upper():<7} {r.check}"
            if params:
                head += f" [{params}]"
            head += f" witnesses={len(r.witnesses)} elapsed={r.elapsed_ms}ms"
            lines.append(head)
            for w in r.witnesses[:8]:
                lines.append(f"        {w[0]}: expected {w[1]}, got {w[2]}")
        text = "\n".join(lines)
    else:
        text = "\n".join(r.to_json() for r in reports)
    click.echo(text)
    if out is not None:
        with open(out, "w", encoding="ascii") as fh:
            write_jsonl(reports, fh)


def _readers(key: str) -> str:
    return ", ".join(name for name in SUITES if key in suite_windows(name))


@main.command()
@click.argument("which", type=click.Choice([*SUITES, "all"]))
@click.option("--l", envvar="RSBF_L", type=int, default=None,
              help=f"Sweep degree, for {_readers('l')}.")
@click.option("--n-range", envvar="RSBF_N_RANGE", type=RANGE, default=None,
              help=f"Arity window A..B, for {_readers('n_range')}.")
@click.option("--e-range", envvar="RSBF_E_RANGE", type=RANGE, default=None,
              help=f"Stride window A..B, for {_readers('e_range')}.")
@click.option("--workers", envvar="RSBF_WORKERS", type=click.IntRange(0), default=0,
              show_default=True,
              help="Process pool size: check all spreads whole suites over it, one sweep "
                   "suite its factor jobs; 1 runs in process, 0 means one per usable CPU.")
@click.option("--max-n", envvar="RSBF_MAX_N", type=click.IntRange(1, HARD_MAX_N),
              default=DEFAULT_MAX_N, show_default=True,
              help="Skip cases above this arity.")
@click.option("--seed", envvar="RSBF_SEED", type=int, default=0, show_default=True,
              help="Seed for the sampled identity grids and the sweep spot checks.")
@click.option("--format", "fmt", envvar="RSBF_FORMAT",
              type=click.Choice(["json", "text", "csv"]), default="json", show_default=True,
              help="json streams one report per line; csv only for the table checks.")
@click.option("--out", envvar="RSBF_OUT", type=click.Path(dir_okay=False, writable=True),
              default=None, help="Also write the reports (or table CSV) to a file.")
@click.pass_context
def check(ctx, which, l, n_range, e_range, workers, max_n, seed, fmt, out):
    """Run one verification suite (or all) and exit 0 only on a clean run.

    ``check NAME`` prints exactly the NAME lines of ``check all``; the
    window flags override a suite's defaults and are refused by suites
    that do not read them.  The quadratic counterexample search exits 0
    exactly when a counterexample is found, because finding one is its job.
    """
    names = list(SUITES) if which == "all" else [which]
    window = {"l": l, "n_range": n_range, "e_range": e_range}
    window = {key: value for key, value in window.items() if value is not None}
    # every window is checked against every chosen suite before any runs
    for key, value in window.items():
        flag = f"--{key.replace('_', '-')}"
        if not all(key in suite_windows(name) for name in names):
            raise click.UsageError(f"{flag} does not apply to check {which}")
        low, text = (value, str(value)) if key == "l" else (value[0], f"{value[0]}..{value[1]}")
        floor = max(window_floor(name, key) for name in names)
        if low < floor:
            raise click.UsageError(f"check {which} takes {flag} from {floor} up, got {text}")
    if l is not None and l >= 7:
        click.echo(f"# degree {l} is exploratory; no expected outcome is pinned", err=True)
    if fmt == "csv" and which not in TABLE_SUITES:
        raise click.UsageError(f"--format csv only applies to {'/'.join(TABLE_SUITES)}")
    if fmt == "csv" and out is None:
        raise click.UsageError("--format csv needs --out for the table artifact")

    cfg = HarnessConfig(max_n=max_n, workers=workers, seed=seed)
    result = run_all(cfg, only=names, **window)
    if fmt == "csv":
        with open(out, "w", encoding="ascii", newline="") as fh:
            fh.write(result.tables[0].to_csv_text())
        _stream_reports(result.reports, "json", None)
    else:
        _stream_reports(result.reports, fmt, out)
    if which == "all":
        counts = result.counts()
        click.echo(
            f"# {counts['pass']} pass, {counts['fail']} fail, {counts['skipped']} skipped",
            err=True,
        )
    ctx.exit(result.exit_code)


if __name__ == "__main__":
    main()
