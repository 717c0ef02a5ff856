"""Command-line interface wiring the codec, sweeps and models together.

``main(argv)``, the one entry point, parses argv with argparse and runs a
command.  Every command hands its report to ``_emit``, which prints it to
stdout (or ``--out <path>``) and emits a run manifest alongside: to stderr
for stdout reports, to ``<path>.manifest.json`` for file reports.  Reports
are deterministic for fixed arguments, byte for byte, which the manifest
checksums make easy to verify.

Exit codes: 0 success (also ``--help`` and ``--version``); 1 a ``ValueError``
(from the parser, a command's checks or the library) or an ``OSError`` (a
file that cannot be read or written), which ``main`` alone reports in one
``error: ...`` line, or ^C; 2 validation failure, returned by verify-maps
on colliding composite keys; 3 ``SearchNotFoundError``, search exhausted.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

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
from .manifest import RunManifest, sha256_text
from .reliability import (DEFAULT_LAMBDA, WINDOW_TOLERANCE, code_params, curve_to_csv,
                          reliability_curve, uncharged)
from .scalability import compare, comparison_to_csv
from .search import SearchNotFoundError, search_assignment, validate_assignment

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_NOT_FOUND = 3


def _emit(report: str | dict, args: argparse.Namespace) -> None:
    """Write the report, text or a JSON document, and the manifest of the parsed command."""
    text = report if isinstance(report, str) else json.dumps(report, indent=2) + "\n"
    man = RunManifest(
        command=args.command,
        arguments=tuple(args.argv),
        version=__version__,
        outputs={args.out or "stdout": sha256_text(text)},
        seed=getattr(args, "seed", None),  # only search takes a seed
    ).to_json()
    if args.out:
        Path(args.out).write_text(text)
        Path(args.out + ".manifest.json").write_text(man + "\n")
    else:
        print(text, end="", flush=True)  # the report leaves before its manifest
        print(man, file=sys.stderr)


def _parse_error_range(spec: str) -> tuple:
    """'3' -> (3, 3); '1..6' -> (1, 6)."""
    s = spec.strip()
    lo, sep, hi = s.partition("..")
    try:
        e_min = int(lo)
        e_max = int(hi) if sep else e_min
    except ValueError:
        raise ValueError(f"bad --errors {spec!r}: want N or N..M") from None
    if e_min < 0 or e_max < e_min:
        raise ValueError(f"bad --errors {spec!r}: want 0 <= N <= M")
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


def cmd_encode(args) -> None:
    """Encode payload bits into a codestruct (hex plus fields)."""
    cs = encode_word(builtin_config(args.code), args.data)
    doc = {"schema": "overlap-ecc/codestruct/1", "code": args.code,
           "hex": cs.to_hex(), **cs.to_json_dict()}
    _emit(doc, args)


def cmd_decode(args) -> None:
    """Decode a stored codestruct, reporting the repair taken."""
    cfg = builtin_config(args.code)
    res = decode_word(cfg, Codestruct.from_hex(args.hex, cfg.m, cfg.k))
    doc = {
        "schema": "overlap-ecc/decode/1",
        "code": args.code,
        "detected": res.detected,
        "action": res.kind,
        "flipped_positions": list(res.flipped),
        "data": "".join(map(str, res.data)),
    }
    _emit(doc, args)


def cmd_sweep(args) -> None:
    """Exhaustive fault-injection sweep(s); correction and detection rates."""
    if args.all:
        given = [f"--{opt}" for opt in ("code", "region", "errors")
                 if getattr(args, opt) is not None]
        if given:
            raise ValueError(f"--all sweeps every code and region at 1..8 errors; "
                             f"drop {', '.join(given)}")
        cells = [(c, r, 1, 8) for c in BUILTIN_NAMES for r in Region]
    else:
        if args.code is None:
            raise ValueError("pass --code or --all")
        region = Region("codestruct" if args.region in (None, "all") else args.region)
        errors = "1..8" if args.errors is None else args.errors
        cells = [(args.code, region, *_parse_error_range(errors))]

    reports = []
    for code_name, region, e_min, e_max in cells:
        cfg = builtin_config(code_name)
        size = len(region.positions(cfg.m, cfg.n))
        if e_max > size:
            print(f"warning: {code_name} {region.value}: skipping weights "
                  f"{max(e_min, size + 1)}..{e_max}, region has only {size} bits", file=sys.stderr)
        if e_min <= size:
            reports.extend(sweep(cfg, region, e_min, min(e_max, size), injector=args.injector))
    _emit(reports_to_csv(reports) if args.format == "csv" else reports_to_json_obj(reports), args)


def cmd_search(args) -> None:
    """Search a valid (outer, inner) address assignment pair."""
    res = search_assignment(args.m, k=args.k, seed=args.seed)
    doc = {"schema": "overlap-ecc/assignment/1", "m": res.m, "k": res.k,
           "seed": args.seed, "outer": list(res.outer), "inner": list(res.inner),
           "explored_states": res.explored}
    _emit(doc, args)


def cmd_verify_maps(args) -> int:
    """Check an assignment pair for composite-key collisions."""
    cfg = builtin_config(args.builtin) if args.builtin else _load_maps(args.file)
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
    _emit("\n".join(lines) + "\n", args)
    return EXIT_OK if report.ok else EXIT_INVALID


def cmd_reliability(args) -> None:
    """Reliability-over-time curve and finite-horizon MTTF."""
    params = code_params(args.code, lam=args.lam)
    curve = reliability_curve(params, args.t_max, args.step)
    left_out = uncharged(params, args.t_max)
    if left_out > WINDOW_TOLERANCE:
        # past its lowest sample the windowed curve rises, so name that day
        t_low, r_low = min(curve.samples, key=lambda sample: sample[1])
        rises = f"; the curve is lowest at {t_low:g} days" if r_low < curve.samples[-1][1] else ""
        print(f"warning: {args.code}: P(count > {params.sigma}) = {left_out:.2%} at "
              f"{args.t_max:g} days is outside the model window and not charged{rises}",
              file=sys.stderr)
    _emit(curve_to_csv(curve), args)


def cmd_scalability(args) -> None:
    """Redundancy costs per square size, against the reference codes."""
    _emit(comparison_to_csv(compare(args.max)), args)


class _Parser(argparse.ArgumentParser):
    """Takes no abbreviated options; a usage error raises ValueError (exit 1, not 2)."""

    def __init__(self, **kwargs):
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)
        # argparse's private matcher: a dash and a digit start a value (--errors -3..10)
        self._negative_number_matcher = re.compile(r"-\d")
        self.add_argument("--help", action="help", help="show this message and exit")

    def error(self, message):
        raise ValueError(message)


def _at_least(low, kind=int, strict=False):
    """An argparse type: kind(text) >= low (> low when strict); NaN passes to the model."""
    def convert(text: str):
        value = kind(text)
        if value < low or strict and value == low:
            raise argparse.ArgumentTypeError(f"want {'>' if strict else '>='} {low}, got {text!r}")
        return value
    convert.__name__ = kind.__name__  # argparse names it in "invalid int value: 'x'"
    return convert


def _parser() -> _Parser:
    parser = _Parser(prog="overlap-ecc",
                     description="Overlapping extended-Hamming codes: encode, sweep, analyze.")
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name, run):
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__)
        sub.set_defaults(run=run)
        sub.add_argument("--out", help="write the report here, and its manifest beside it")
        return sub

    p = command("encode", cmd_encode)
    p.add_argument("--code", choices=BUILTIN_NAMES, required=True)
    p.add_argument("--data", required=True, help="payload bits, row-major")

    p = command("decode", cmd_decode)
    p.add_argument("--code", choices=BUILTIN_NAMES, required=True)
    p.add_argument("--hex", required=True, help="stored codestruct as hex")

    p = command("sweep", cmd_sweep)
    # --code, --region and --errors default to None, so --all sees which were given
    p.add_argument("--code", choices=BUILTIN_NAMES)
    p.add_argument("--region", type=str.lower, choices=[r.value for r in Region] + ["all"],
                   help="any case; all is the whole codestruct (default: all)")
    p.add_argument("--errors", help="error weight N or range N..M (default: 1..8)")
    p.add_argument("--format", choices=["csv", "json"], default="csv", help="default: %(default)s")
    p.add_argument("--workers", type=_at_least(1), default=1, help="deprecated and ignored")
    p.add_argument("--injector", choices=["mirror", "flip"], default="mirror",
                   help="default: %(default)s")
    p.add_argument("--all", action="store_true", help="every code and region at 1..8 errors")

    p = command("search", cmd_search)
    p.add_argument("--m", type=int, required=True, help="data bits")
    p.add_argument("--k", type=int, help="check bits per layer")
    p.add_argument("--seed", type=int, default=0,
                   help="0 (the default) tries addresses in ascending order; above 0 shuffles")

    one_of = command("verify-maps", cmd_verify_maps).add_mutually_exclusive_group(required=True)
    one_of.add_argument("--builtin", choices=BUILTIN_NAMES)
    one_of.add_argument("--file", help='JSON with "outer" and "inner" address lists')

    p = command("reliability", cmd_reliability)
    p.add_argument("--code", choices=BUILTIN_NAMES, required=True)
    p.add_argument("--lambda", dest="lam", type=_at_least(0, float, strict=True),
                   default=DEFAULT_LAMBDA, help="failures per bit per day (default: %(default)s)")
    p.add_argument("--t-max", type=_at_least(0, float), default=20000.0,
                   help="horizon in days (default: %(default)s)")
    p.add_argument("--step", type=_at_least(0, float, strict=True), default=1000.0,
                   help="default: %(default)s")

    p = command("scalability", cmd_scalability)
    p.add_argument("--max", type=_at_least(2), default=7,
                   help="largest square side to cost (default: %(default)s)")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else [str(a) for a in argv]
    try:
        args = _parser().parse_args(argv, argparse.Namespace(argv=argv))
        return args.run(args) or EXIT_OK
    except SystemExit as e:  # --help and --version print, then exit 0
        return e.code
    except KeyboardInterrupt:  # end the terminal line that ^C left
        print(file=sys.stderr)
        return EXIT_USAGE
    except SearchNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NOT_FOUND
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
