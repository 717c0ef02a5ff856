"""Command-line interface wiring the codec, sweeps and models together.

Every command prints its report to stdout (or ``--out <path>``) and emits a
run manifest alongside: to stderr for stdout reports, to ``<path>.manifest.json``
for file reports.  Reports are deterministic for fixed arguments, byte for
byte, which the manifest checksums make easy to verify.

Exit codes: 0 success, 1 usage error, 2 validation failure (verify-maps
found colliding composite keys), 3 assignment search exhausted.  Commands
reject input only through click (option types, ``click.UsageError``) or a
library ``ValueError``; ``main`` alone turns either into ``error: ...``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click
from click.core import ParameterSource

from . import __version__
from .code import (
    BUILTIN_NAMES,
    Codestruct,
    OverlapConfig,
    builtin_config,
    decode as decode_word,
    encode as encode_word,
)
from .hamming import MAX_CHECK_BITS
from .injection import Region, reports_to_csv, reports_to_json_obj, sweep
from .manifest import RunManifest, manifest_path, sha256_text
from .reliability import DEFAULT_LAMBDA, code_params, curve_to_csv, reliability_curve
from .scalability import compare, comparison_to_csv
from .search import SearchNotFoundError, search_assignment, validate_assignment

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_NOT_FOUND = 3


def _emit(ctx: click.Context, text: str, out: str | None, seed=None) -> None:
    """Write the report and its manifest."""
    if out:
        Path(out).write_text(text)
        target = out
    else:
        click.echo(text, nl=False)
        target = "stdout"
    man = RunManifest(
        command=ctx.info_name or "",
        arguments=tuple(ctx.obj.get("argv", ())),
        version=__version__,
        outputs={target: sha256_text(text)},
        seed=seed,
    )
    if out:
        Path(manifest_path(out)).write_text(man.to_json() + "\n")
    else:
        click.echo(man.to_json(), err=True)


def _parse_error_range(spec: str) -> tuple:
    """'3' -> (3, 3); '1..6' -> (1, 6)."""
    s = spec.strip()
    lo, sep, hi = s.partition("..")
    try:
        e_min = int(lo)
        e_max = int(hi) if sep else e_min
    except ValueError:
        raise click.UsageError(f"bad --errors {spec!r}: want N or N..M") from None
    if e_min < 0 or e_max < e_min:
        raise click.UsageError(f"bad --errors {spec!r}: want 0 <= N <= M")
    return e_min, e_max


def _load_maps(path: str) -> OverlapConfig:
    """A JSON maps file as a config named after the file: "outer" and
    "inner" address lists plus an optional "k", else the smallest k that
    holds every address."""
    try:
        obj = json.loads(Path(path).read_text())
        layers = [obj["outer"], obj["inner"]]
    except (ValueError, KeyError, TypeError):
        raise ValueError(f'{path}: want a JSON object with "outer" and "inner" lists') from None
    if not all(isinstance(a, list) and a and all(type(x) is int for x in a) for a in layers):
        raise ValueError(f"{path}: address lists must be non-empty lists of integers")
    k = obj.get("k", max(2, *(max(a).bit_length() for a in layers)))
    if type(k) is not int or not 2 <= k <= MAX_CHECK_BITS:
        raise ValueError(f"{path}: k must be an integer in [2, {MAX_CHECK_BITS}], got {k!r}")
    return OverlapConfig(name=path, k=k, outer=layers[0], inner=layers[1])


@click.group()
@click.version_option(__version__, prog_name="overlap-ecc")
def cli():
    """Overlapping extended-Hamming codes: encode, sweep, analyze."""


@cli.command("encode")
@click.option("--code", "name", type=click.Choice(BUILTIN_NAMES), required=True)
@click.option("--data", "data_str", required=True, help="payload bits, row-major")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.pass_context
def cmd_encode(ctx, name, data_str, out):
    """Encode payload bits into a codestruct (hex plus fields)."""
    cs = encode_word(builtin_config(name), data_str)
    doc = {"schema": "overlap-ecc/codestruct/1", "code": name,
           "hex": cs.to_hex(), **cs.to_json_dict()}
    _emit(ctx, json.dumps(doc, indent=2) + "\n", out)


@cli.command("decode")
@click.option("--code", "name", type=click.Choice(BUILTIN_NAMES), required=True)
@click.option("--hex", "hex_str", required=True, help="stored codestruct as hex")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.pass_context
def cmd_decode(ctx, name, hex_str, out):
    """Decode a stored codestruct, reporting the repair taken."""
    cfg = builtin_config(name)
    res = decode_word(cfg, Codestruct.from_hex(hex_str, cfg.m, cfg.k))
    doc = {
        "schema": "overlap-ecc/decode/1",
        "code": name,
        "detected": res.detected,
        "action": res.action.kind if res.action else "none",
        "flipped_positions": list(res.action.positions) if res.action else [],
        "data": "".join(map(str, res.data)),
    }
    _emit(ctx, json.dumps(doc, indent=2) + "\n", out)


@cli.command("sweep")
@click.option("--code", "name", type=click.Choice(BUILTIN_NAMES), default=None)
@click.option("--region", "region_name",
              type=click.Choice([r.value for r in Region] + ["all"], case_sensitive=False),
              default="all", show_default=True, help="all is the whole codestruct")
@click.option("--errors", "errors_spec", default="1..8", show_default=True,
              help="error weight N or range N..M")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True,
              help="accepted and ignored: sweeps count exactly in one process")
@click.option("--injector", type=click.Choice(["mirror", "flip"]), default="mirror",
              show_default=True)
@click.option("--all", "run_all", is_flag=True,
              help="every builtin code and region at 1..8 errors")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.pass_context
def cmd_sweep(ctx, name, region_name, errors_spec, fmt, workers, injector, run_all, out):
    """Exhaustive fault-injection sweep(s); correction and detection rates."""
    if run_all:
        cell = (("name", "--code"), ("region_name", "--region"), ("errors_spec", "--errors"))
        given = [opt for param, opt in cell
                 if ctx.get_parameter_source(param) is ParameterSource.COMMANDLINE]
        if given:
            raise click.UsageError(f"--all sweeps every code and region at 1..8 errors; "
                                   f"drop {', '.join(given)}")
        cells = [(c, r, 1, 8) for c in BUILTIN_NAMES for r in Region]
    else:
        if name is None:
            raise click.UsageError("pass --code or --all")
        region = Region("codestruct" if region_name == "all" else region_name)
        cells = [(name, region, *_parse_error_range(errors_spec))]

    reports = []
    for code_name, region, e_min, e_max in cells:
        cfg = builtin_config(code_name)
        size = len(region.positions(cfg.m, cfg.n))
        if e_max > size:
            click.echo(f"warning: {code_name} {region.value}: skipping weights "
                       f"{max(e_min, size + 1)}..{e_max}, region has only {size} bits", err=True)
        if e_min <= size:
            reports.extend(sweep(cfg, region, e_min, min(e_max, size), injector=injector))
    if fmt == "csv":
        text = reports_to_csv(reports)
    else:
        text = json.dumps(reports_to_json_obj(reports), indent=2) + "\n"
    _emit(ctx, text, out)


@cli.command("search")
@click.option("--m", "m", type=int, required=True, help="data bits")
@click.option("--k", "k", type=int, default=None, help="check bits per layer")
@click.option("--seed", type=int, default=0, show_default=True,
              help="0 tries addresses in ascending order; nonzero shuffles")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.pass_context
def cmd_search(ctx, m, k, seed, out):
    """Search a valid (outer, inner) address assignment pair."""
    res = search_assignment(m, k=k, seed=seed)
    doc = {"schema": "overlap-ecc/assignment/1", "m": res.m, "k": res.k,
           "seed": seed, "outer": list(res.outer), "inner": list(res.inner),
           "explored_states": res.explored}
    _emit(ctx, json.dumps(doc, indent=2) + "\n", out, seed=seed)


@cli.command("verify-maps")
@click.option("--builtin", "name", type=click.Choice(BUILTIN_NAMES), default=None)
@click.option("--file", "path", type=click.Path(exists=True, dir_okay=False),
              default=None, help='JSON with "outer" and "inner" address lists')
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.pass_context
def cmd_verify_maps(ctx, name, path, out):
    """Check an assignment pair for composite-key collisions."""
    if (name is None) == (path is None):
        raise click.UsageError("pass exactly one of --builtin or --file")
    cfg = builtin_config(name) if name else _load_maps(path)
    report = validate_assignment(cfg.outer, cfg.inner)
    m = cfg.m
    lines = []
    if report.ok:
        lines.append(f"ok: {cfg.name}: {m * (m - 1) // 2} unique composite keys "
                     f"over {m} data bits")
    else:
        lines.append(f"invalid: {cfg.name}: {len(report.collisions)} composite-key "
                     f"collision(s)")
        for first, second, key in report.collisions:
            lines.append(f"  positions {first} and {second} share key "
                         f"(outer^={key[0]}, inner^={key[1]})")
    _emit(ctx, "\n".join(lines) + "\n", out)
    if not report.ok:
        ctx.exit(EXIT_INVALID)


@cli.command("reliability")
@click.option("--code", "name", type=click.Choice(BUILTIN_NAMES), required=True)
@click.option("--lambda", "lam", type=click.FloatRange(0, min_open=True),
              default=DEFAULT_LAMBDA, show_default=True, help="failures per bit per day")
@click.option("--t-max", type=click.FloatRange(0), default=20000.0, show_default=True,
              help="horizon in days")
@click.option("--step", type=click.FloatRange(0, min_open=True), default=1000.0,
              show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.pass_context
def cmd_reliability(ctx, name, lam, t_max, step, out):
    """Reliability-over-time curve and finite-horizon MTTF."""
    curve = reliability_curve(code_params(name, lam=lam), t_max, step)
    _emit(ctx, curve_to_csv(curve), out)


@cli.command("scalability")
@click.option("--max", "max_side", type=click.IntRange(min=2), default=7,
              show_default=True, help="largest square side to cost")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.pass_context
def cmd_scalability(ctx, max_side, out):
    """Redundancy costs per square size, against the reference codes."""
    _emit(ctx, comparison_to_csv(compare(max_side)), out)


def main(argv=None) -> int:
    args = list(sys.argv[1:]) if argv is None else [str(a) for a in argv]
    try:
        # without standalone mode click returns ctx.exit()'s code (--help,
        # --version, verify-maps' EXIT_INVALID) and None on success
        return cli.main(args=args, prog_name="overlap-ecc", standalone_mode=False,
                        obj={"argv": args}) or EXIT_OK
    except click.ClickException as e:
        click.echo(f"error: {e.format_message()}", err=True)
        return EXIT_USAGE
    except click.Abort:
        return EXIT_USAGE
    except SearchNotFoundError as e:
        click.echo(f"error: {e}", err=True)
        return EXIT_NOT_FOUND
    except ValueError as e:
        click.echo(f"error: {e}", err=True)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
