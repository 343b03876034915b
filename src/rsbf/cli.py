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
    spectrum_argmax,
    walsh_at,
    walsh_transform,
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
    spectrum = walsh_transform(tbl)
    mask_signed, value_signed, mask_abs, value_abs = spectrum_argmax(spectrum)
    wt = weight(tbl)
    nl = (tbl.size - value_signed) // 2
    record = {
        "n": n,
        "l": l,
        "e": e,
        "degenerate": spec.degenerate,
        "weight": wt,
        "nonlinearity": nl,
        "walsh_at_zero": spectrum[0],
        "max_walsh": value_signed,
        "max_walsh_mask": _mask_text(int(mask_signed), n, bits) if bits else int(mask_signed),
        "max_abs_walsh": value_abs,
        "max_abs_walsh_mask": _mask_text(int(mask_abs), n, bits) if bits else int(mask_abs),
        "nonlinearity_equals_weight": nl == wt,
        "peak_at_zero": value_abs <= spectrum[0],
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


# Full dumps are rendered this many rows at a time, so the whole text never
# exists at once; one block's byte matrix is a few MiB.
_BLOCK_ROWS = 1 << 16


def _decimal_columns(x):
    """Decimal text of integers, one per row of a uint8 matrix: a sign
    column ('-' or 0), then the digits right-aligned behind 0 bytes."""
    import numpy as np

    # spectra and masks stay within 2**HARD_MAX_N, so abs cannot overflow
    # and uint32 holds every magnitude
    rest = np.abs(x).astype(np.uint32, copy=False)
    width = len(str(int(rest.max())))
    m = np.zeros((x.size, width + 1), dtype=np.uint8)
    m[x < 0, 0] = ord("-")
    m[:, width] = rest % 10 + ord("0")
    for col in range(width - 1, 0, -1):
        rest //= 10
        digit = (rest % 10).astype(np.uint8)
        digit += ord("0")
        digit *= rest != 0  # leading zeros become padding
        m[:, col] = digit
    return m


def _render_spectrum(record: dict, values, fmt: str, n: int, bits: bool, out: str | None) -> None:
    """Write a full spectrum to the file ``out``, or to stdout when None.

    Rows go out in blocks.  A block is one uint8 matrix of mask, separator,
    value and line-end columns, padded with 0 bytes that the write drops, so
    the bytes equal per-row ``str`` formatting: JSON rows ``v,`` (the last
    comma becomes ``]}``), CSV rows ``c,v`` ending in ``\\r\\n`` as the csv
    module writes them, text rows ``c v``.
    """
    import contextlib

    import numpy as np

    if fmt == "json":
        head = _record_json(record)[:-1] + ',"values":['
        sep, end = None, b","
    elif fmt == "csv":
        head = "mask,value\r\n"
        sep, end = b",", b"\r\n"
    else:
        head = " ".join(f"{k}={v}" for k, v in record.items()) + "\n"
        if record.get("degenerate"):
            head += "note: degenerate (n < l), indices wrap onto repeats\n"
        sep, end = b" ", b"\n"

    def constant(text: bytes, rows: int):
        return np.broadcast_to(np.frombuffer(text, dtype=np.uint8), (rows, len(text)))

    if out is not None:
        sink = open(out, "wb")
    else:  # stdout's byte stream, left open
        sink = contextlib.nullcontext(click.get_binary_stream("stdout"))
    with sink as fh:
        fh.write(head.encode("ascii"))
        for start in range(0, values.size, _BLOCK_ROWS):
            block = values[start : start + _BLOCK_ROWS]
            rows = block.size
            columns = [_decimal_columns(block), constant(end, rows)]
            if sep is not None:
                masks = np.arange(start, start + rows, dtype=np.uint32)
                if bits:
                    shifts = np.arange(n, dtype=np.uint32)
                    mask_text = ((masks[:, None] >> shifts) & 1).astype(np.uint8)
                    mask_text += ord("0")
                else:
                    mask_text = _decimal_columns(masks)
                columns[:0] = [mask_text, constant(sep, rows)]
            m = np.concatenate(columns, axis=1)
            data = m[m != 0].tobytes()
            if fmt == "json" and start + rows == values.size:
                data = data[:-1] + b"]}\n"
            fh.write(data)
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
    values = walsh_transform(tbl).values
    record = {"n": n, "l": l, "e": e, "degenerate": spec.degenerate}
    _render_spectrum(record, values, fmt, n, bits, out)


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
    values = walsh_transform(tbl).values
    record = {"i": i, "j": j, "n": n}
    _render_spectrum(record, values, fmt, n, bits, out)


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
              show_default=True, help="Process pool size; 0 means one per CPU.")
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
