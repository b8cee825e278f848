"""Command-line front end.

Subcommands: solve, autocorr, grid, levels, verify, weights.  Numeric
output uses 17 significant digits so downstream plotting reproduces runs
without loss; every subcommand is deterministic for a fixed configuration.

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 budget
refusal, also for a request whose arrays cannot be allocated.  A path
that cannot be opened (missing, a directory, not permitted) is a usage
error naming it.  A --descriptor file that cannot be read as a state (a
malformed line, a missing key, an unknown family, a value that does not
parse or that the weight or angular parameters reject) is a usage error
naming the file; a failure while the state is built from valid
parameters is numerical.

Environment: COHERE_THREADS caps the linear-algebra thread pools (it is
applied when the cohere package is first imported, before numpy loads).

One parse reads every option value: COHERE_GRID_BUDGET as grid's --budget
flag, then each line of the --config file as a flag, then the command
line.  The last value read wins, so a flag beats the config, the
config beats the environment, and that beats the default that `cohere
<command> --help` prints.  The config holds flat key=value lines, read
as descriptors are, keyed by the long names of the subcommand's options
(dashes or underscores), so it may give required options too; config=,
help= and any key that names no option are usage errors.  Each value's
option type checks it, whatever its source: a value out of range is a
usage error naming the flag, the variable, or the file and key.  Integer
options accept integer-valued literals such as 1e9; float options and
each --times entry must be finite numbers.

The parser is built by the first main call and shared by later calls in
the same process.
"""
from __future__ import annotations

import argparse
import os
import re
import sys
from functools import lru_cache

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_BUDGET = 3


class UsageError(Exception):
    pass


class _Help(argparse.ArgumentDefaultsHelpFormatter):
    def _get_help_string(self, action):  # a default of None is described by the help text
        return action.help if action.default is None else super()._get_help_string(action)


class _Parser(argparse.ArgumentParser):
    """Raises UsageError; it and its subcommand parsers print each option's
    default, and read a word that starts -<digit> or -.<digit>, such as
    -1e3 or -1,5, as a value, not as a flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **{"formatter_class": _Help, **kwargs})
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise UsageError(message)


def _integer(text: str) -> int:
    """An integer from text, accepting integer-valued literals such as 1e9."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not value.is_integer():
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}")
    return int(value)


def _real(text: str) -> float:
    """A finite float from text; nan, inf and malformed text are refused."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not abs(value) < float("inf"):  # false for nan as well
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _times(text: str) -> str:
    """Comma-separated finite times, kept as written."""
    for entry in text.split(","):
        _real(entry)
    return text


def _where(read, holds, rule: str):
    """An argparse type: the value read from text, refused unless
    holds(value); rule completes "must ..."."""
    def parse(text: str):
        value = read(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(f"must {rule}, got {text!r}")
        return value
    return parse


def _source_flags(command: argparse.ArgumentParser, config) -> list:
    """COHERE_GRID_BUDGET, then each line of the config file, as flags of
    the subcommand; each value is checked first, so that an error names
    its source."""
    options = {a.dest: a for a in command._actions
               if a.option_strings and a.dest not in ("help", "config")}
    values = []
    if "budget" in options and os.environ.get("COHERE_GRID_BUDGET"):
        values.append(("COHERE_GRID_BUDGET", "budget", os.environ["COHERE_GRID_BUDGET"]))
    if config and "--config" in command._option_string_actions:
        from cohere.state import parse_descriptor

        try:
            lines = parse_descriptor(config)
        except ValueError as exc:
            raise UsageError(f"{exc} in {config}") from None
        values += [(f"config key {key} in {config}", key, text) for key, text in lines.items()]
    flags = []
    for source, key, text in values:
        action = options.get(key.replace("-", "_"))
        if action is None:
            raise UsageError(f"unknown {source}")
        try:
            value = action.type(text) if action.type else text
        except argparse.ArgumentTypeError as exc:
            raise UsageError(f"{source} {exc}") from None
        if action.choices is not None and value not in action.choices:
            raise UsageError(f"{source} must be one of {', '.join(action.choices)}, got {text!r}")
        flags.append(f"{action.option_strings[0]}={text}")
    return flags


def _weight_from_args(args) -> "object":
    from cohere.weights import WeightSpec

    if args.family == "exponential":
        if args.alpha is not None:
            raise UsageError("--alpha requires --family stretched")
        return WeightSpec.exponential()
    if args.alpha is None:
        raise UsageError("the stretched family requires --alpha")
    return WeightSpec.stretched(float(args.alpha))


def build_parser() -> _Parser:
    from inspect import signature

    from cohere.identity import standard_verification
    from cohere.position import DEFAULT_GRID_BUDGET
    from cohere.state import solve_scale_ln
    from cohere.weights import DEFAULT_TAIL_EPS

    # the library's defaults, read where they are written
    tol = signature(solve_scale_ln).parameters["tol"].default
    verify = {name: p.default for name, p in signature(standard_verification).parameters.items()}
    positive = _where(_real, lambda v: v > 0, "be positive")
    nonnegative = _where(_integer, lambda v: v >= 0, "be nonnegative")
    samples = _where(_integer, lambda v: v >= 2, "be at least 2")

    parser = _Parser(
        prog="cohere",
        description="Coherent states for the hydrogen atom: solving, traces, fields, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # main reads their options to turn sources into flags
    # main's first parse, of the words after the subcommand: it reads the
    # config path without asking for the options that the config may give
    parser.sources = _Parser(add_help=False)
    parser.sources.add_argument("-h", "--help", action="store_true")
    parser.sources.add_argument("--config")
    config_help = "key=value file of option values"

    p = sub.add_parser("solve", help="solve for the scale matching a target mean level")
    p.add_argument("--alpha", type=positive, required=True, help="stretch exponent of the weight")
    p.add_argument("--mean", type=_where(_real, lambda v: v > 1, "exceed 1"), required=True,
                   help="target mean principal quantum number")
    p.add_argument("--gamma", type=_real, default=0.0, help="phase; the state at time t has gamma + t")
    p.add_argument("--eccentricity", type=_where(_real, lambda v: 0 <= v < 1, "lie in [0, 1)"),
                   default=0.0, help="Kepler eccentricity for the angular factor")
    p.add_argument("--tail-eps", type=_where(_real, lambda v: 0 < v < 1, "lie in (0, 1)"),
                   default=DEFAULT_TAIL_EPS, help="weight outside the level window")
    p.add_argument("--tol", type=positive, default=tol, help="relative tolerance on the mean")
    p.add_argument("--config", default=None, help=config_help)
    p.add_argument("--output", "-o", default="state.desc", help="state descriptor path")

    p = sub.add_parser("autocorr", help="autocorrelation trace to CSV")
    p.add_argument("--descriptor", required=True)
    p.add_argument("--t-start", type=_real, default=0.0, help="start of the uniform time range")
    p.add_argument("--t-end", type=_real, default=None, help="defaults to 1.1x the revival time")
    p.add_argument("--samples", type=samples, default=10001, help="uniform samples in the range")
    p.add_argument("--refine-near-revivals", type=nonnegative, default=0,
                   help="extra samples added around each fractional revival time")
    p.add_argument("--config", default=None, help=config_help)
    p.add_argument("--output", "-o", required=True)

    p = sub.add_parser("grid", help="planar field files at selected times")
    p.add_argument("--descriptor", required=True)
    p.add_argument("--width", type=positive, required=True)
    p.add_argument("--samples", type=samples, required=True)
    p.add_argument("--times", type=_times, default=None,
                   help="comma-separated times; default: the fractional revival times")
    p.add_argument("--format", choices=("csv", "bin"), default="csv", help="frame file format")
    p.add_argument("--budget", type=_where(_integer, lambda v: v >= 1, "be at least 1"),
                   default=DEFAULT_GRID_BUDGET,
                   help="cap on (max level)^2 * samples^2; COHERE_GRID_BUDGET overrides the default")
    p.add_argument("--config", default=None, help=config_help)
    p.add_argument("--output-prefix", "-o", required=True)

    p = sub.add_parser("levels", help="level distribution to CSV")
    p.add_argument("--descriptor", required=True)
    p.add_argument("--output", "-o", required=True)

    p = sub.add_parser("verify", help="resolution-of-identity verification suite")
    p.add_argument("--family", choices=("exponential", "stretched"), default="exponential", help="weight family")
    p.add_argument("--alpha", type=positive, default=None, help="stretch exponent of the weight")
    p.add_argument("--n-max", type=_where(_integer, lambda n: n >= 1, "be at least 1"), default=verify["n_max"],
                   help="levels 1..N of the combined identity, one level block at a time; N <= both orders")
    p.add_argument("--su2-max-two-j", type=nonnegative, default=verify["su2_max_two_j"],
                   help="largest 2j of the spin checks")
    p.add_argument("--polar-order", type=_integer, default=verify["polar_order"],
                   help="polar nodes of the sphere rule")
    p.add_argument("--azimuthal-count", type=_integer, default=verify["azimuthal_count"],
                   help="azimuthal nodes of the rule")
    p.add_argument("--full-tol", type=positive, default=verify["full_tol"],
                   help="tolerance of the combined identity")
    p.add_argument("--config", default=None, help=config_help)
    p.add_argument("--output", "-o", default=None, help="write the JSON report here")

    p = sub.add_parser("weights", help="weight-function utilities")
    wsub = p.add_subparsers(dest="weights_command", required=True)
    m = wsub.add_parser("moments", help="log-moment table")
    m.add_argument("--family", choices=("exponential", "stretched"), default="exponential", help="weight family")
    m.add_argument("--alpha", type=positive, default=None)
    m.add_argument("--n-max", type=nonnegative, required=True)
    m.add_argument("--output", "-o", default=None, help="CSV path (stdout if omitted)")

    return parser


def cmd_solve(args) -> int:
    from cohere import hydrogen
    from cohere.position import ellipse_to_angular
    from cohere.state import (
        _FMT,
        build_state,
        level_spread,
        mean_level,
        solve_scale_ln,
        write_descriptor,
    )
    from cohere.su2 import AngularParams
    from cohere.weights import WeightSpec

    ln_s = solve_scale_ln(args.alpha, args.mean, tol=args.tol, tail_eps=args.tail_eps)
    if args.eccentricity > 0:
        angular = ellipse_to_angular(args.eccentricity)
    else:
        angular = AngularParams(0.0, 0.0)
    state = build_state(WeightSpec.stretched(args.alpha), args.gamma, angular,
                        tail_eps=args.tail_eps, ln_s=ln_s)
    mean = mean_level(state, principal=True)
    spread = level_spread(state)
    t_revival = hydrogen.revival_time(mean)
    ratio = hydrogen.revival_ratio(mean, spread)
    write_descriptor(args.output, state)

    print(f"descriptor={args.output}")
    for key, value in (("ln_s", ln_s), ("s", state.s), ("mean_principal", mean), ("spread", spread),
                       ("revival_time", t_revival), ("revival_ratio", ratio)):
        print(f"{key}={_FMT % value}")
    print("revival_quality=" + ("clean revival expected" if ratio < 1.0 else "no clean revival"))
    return EXIT_OK


def cmd_autocorr(args) -> int:
    import numpy as np

    from cohere import hydrogen
    from cohere.state import autocorrelation, mean_level, read_descriptor, write_trace_csv

    state = read_descriptor(args.descriptor)
    t_revival = hydrogen.revival_time(mean_level(state, principal=True))
    if args.t_end is None:
        args.t_end = 1.1 * t_revival
    if not args.t_start < args.t_end:
        raise UsageError("--t-end must exceed --t-start")
    times = np.linspace(args.t_start, args.t_end, args.samples)
    if args.refine_near_revivals > 0:
        windows = [
            np.linspace(0.99 * t, 1.01 * t, args.refine_near_revivals)
            for _, t in hydrogen.fractional_revival_times(t_revival)
            if args.t_start <= t <= args.t_end and t > 0
        ]
        if windows:
            # a window straddling an end of the range keeps only its inside part
            extras = np.concatenate(windows)
            extras = extras[(args.t_start <= extras) & (extras <= args.t_end)]
            times = np.unique(np.concatenate([times, extras]))
    values = autocorrelation(state, times)
    write_trace_csv(args.output, times, values)
    print(f"wrote {times.size} rows to {args.output}")
    return EXIT_OK


def _safe_label(label: str) -> str:
    return label.replace("/", "_over_").replace(" ", "")


def cmd_grid(args) -> int:
    from cohere import hydrogen
    from cohere.position import (
        GridSpec,
        field_frames,
        write_field_binary,
        write_field_csv,
    )
    from cohere.state import _FMT, mean_level, read_descriptor

    state = read_descriptor(args.descriptor)
    grid = GridSpec(width=args.width, samples=args.samples)
    if args.times is not None:
        schedule = [(f"t{i}", float(v)) for i, v in enumerate(args.times.split(","))]
    else:
        t_revival = hydrogen.revival_time(mean_level(state, principal=True))
        schedule = hydrogen.fractional_revival_times(t_revival)

    write = write_field_csv if args.format == "csv" else write_field_binary
    frames = field_frames(state, grid, [t for _, t in schedule], budget=args.budget)
    for (label, t), field in zip(schedule, frames):
        path = f"{args.output_prefix}_{_safe_label(label)}.{args.format}"
        write(path, field)
        print(f"wrote {path} (t={_FMT % t})")
    return EXIT_OK


def cmd_levels(args) -> int:
    from cohere.state import _FMT, _write_csv, read_descriptor

    coeffs = read_descriptor(args.descriptor).coeffs
    with open(args.output, "w") as fh:
        _write_csv(fh, "n,p_n", "%d," + _FMT, (coeffs.levels, coeffs.probabilities))
    print(f"wrote {coeffs.levels.size} rows to {args.output}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from cohere.identity import (
        InsufficientOrderError,
        report_json,
        report_text,
        standard_verification,
    )

    try:
        results = standard_verification(
            spec=_weight_from_args(args),
            n_max=args.n_max,
            su2_max_two_j=args.su2_max_two_j,
            polar_order=args.polar_order,
            azimuthal_count=args.azimuthal_count,
            full_tol=args.full_tol,
        )
    except InsufficientOrderError as exc:
        raise UsageError(str(exc)) from None
    print(report_text(results))
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(report_json(results) + "\n")
        print(f"report written to {args.output}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_NUMERICAL


def cmd_weights_moments(args) -> int:
    import numpy as np

    from cohere.state import _FMT, _write_csv
    from cohere.weights import log_moment

    n = np.arange(args.n_max + 1)
    table = ("n,log_moment", "%d," + _FMT, (n, log_moment(_weight_from_args(args), n)))
    if args.output:
        with open(args.output, "w") as fh:
            _write_csv(fh, *table)
        print(f"wrote {n.size} rows to {args.output}")
    else:
        _write_csv(sys.stdout, *table)
    return EXIT_OK


@lru_cache(maxsize=1)
def _shared_parser() -> _Parser:
    return build_parser()


def main(argv=None) -> int:
    parser = _shared_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        subcommand = parser.commands.get(argv[0]) if argv else None
        if subcommand is not None:
            first, _ = parser.sources.parse_known_args(argv[1:])
            if not first.help:
                # ahead of the command line, so that its flags are read last and win
                argv[1:1] = _source_flags(subcommand, first.config)
        args = parser.parse_args(argv)
        # looked up at call time, so a wrapped cmd_* binding is the one called
        command = {"solve": cmd_solve, "autocorr": cmd_autocorr, "grid": cmd_grid,
                   "levels": cmd_levels, "verify": cmd_verify, "weights": cmd_weights_moments}
        return command[args.command](args)
    except (UsageError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # descriptor, numerical and budget failures
        from cohere.position import BudgetExceededError
        from cohere.state import DescriptorError

        if isinstance(exc, (BudgetExceededError, MemoryError)):
            print(f"budget refusal: {exc}", file=sys.stderr)
            return EXIT_BUDGET
        if isinstance(exc, DescriptorError):
            print(f"usage error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if isinstance(exc, (ArithmeticError, ValueError)):
            print(f"numerical failure: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        raise


if __name__ == "__main__":
    sys.exit(main())
