"""Command-line front end.

Subcommands: solve, autocorr, grid, levels, verify, weights.  Numeric
output uses 17 significant digits so downstream plotting reproduces runs
without loss; every subcommand is deterministic for a fixed configuration.

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 budget
refusal.  A --descriptor file that cannot be read as a state (a malformed
line, a missing key, an unknown family, a value that does not parse or
that the weight or angular parameters reject) is a usage error naming
the file; a failure while the state is built from valid parameters is
numerical.

Environment: COHERE_THREADS caps the linear-algebra thread pools (it is
applied when the cohere package is first imported, before numpy loads);
COHERE_GRID_BUDGET sets the planar-grid resource budget.

Each option's value comes from the first of: its flag, the --config file,
COHERE_GRID_BUDGET (for grid's --budget only), the built-in default that
`cohere <command> --help` prints.  The config file holds flat key=value
lines, read as descriptors are; the long name of any option of the
subcommand is a valid key (dashes or underscores), a key that names none
is a usage error, and required options must still be given as flags.
Integer options accept integer-valued literals such as 1e9 from flags,
configs and the environment alike; float options, their config values
and each --times entry must be finite numbers.  solve's --tail-eps, the
weight left outside the level window, must lie in (0, 1).

The parser is built by the first main call and shared by later calls in
the same process; a --config file's values apply to its own call only.
"""
from __future__ import annotations

import argparse
import os
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
    """Raises UsageError; it and its subcommand parsers print each option's default."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **{"formatter_class": _Help, **kwargs})

    def error(self, message):
        raise UsageError(message)


def _integer(text: str, source: str) -> int:
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
        raise UsageError(f"{source} must be an integer, got {text!r}")
    return int(value)


def _real(text: str, source: str) -> float:
    """A finite float from text; nan, inf and malformed text are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not abs(value) < float("inf"):  # false for nan as well
        raise UsageError(f"{source} must be a finite number, got {text!r}")
    return value


def _option(read):
    """argparse type built on a reader that raises UsageError."""
    def parse(text: str):
        try:
            return read(text, "value")
        except UsageError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


_int_option = _option(_integer)
_real_option = _option(_real)


def _config_defaults(command: argparse.ArgumentParser, path: str) -> dict:
    """The config file's values for the subcommand's options, read as
    their flags are."""
    from cohere.state import parse_descriptor

    try:
        config = {k.replace("-", "_"): v for k, v in parse_descriptor(path).items()}
    except ValueError as exc:
        raise UsageError(f"{exc} in {path}") from None
    actions = {a.dest: a for a in command._actions if a.default is not argparse.SUPPRESS}
    unknown = sorted(set(config) - set(actions))
    if unknown:
        raise UsageError(f"unknown config key(s) {', '.join(unknown)} in {path}")
    defaults = {}
    for key, text in config.items():
        action = actions[key]
        read = {_int_option: _integer, _real_option: _real}.get(action.type)
        value = read(text, f"config value {key}") if read else text
        if action.choices is not None and value not in action.choices:
            raise UsageError(f"config value {key} must be one of "
                             f"{', '.join(action.choices)}, got {text!r}")
        defaults[key] = value
    return defaults


def _weight_from_args(args) -> "object":
    from cohere.weights import WeightSpec

    if args.family == "exponential":
        if args.alpha is not None:
            raise UsageError("--alpha requires --family stretched")
        return WeightSpec.exponential()
    if args.alpha is None:
        raise UsageError("the stretched family requires --alpha")
    if not args.alpha > 0:
        raise UsageError("--alpha must be positive")
    return WeightSpec.stretched(float(args.alpha))


def build_parser() -> _Parser:
    from inspect import signature

    from cohere.identity import standard_verification
    from cohere.state import solve_scale_ln
    from cohere.weights import DEFAULT_TAIL_EPS

    # the library's defaults, read where they are written
    tol = signature(solve_scale_ln).parameters["tol"].default
    verify = {name: p.default for name, p in signature(standard_verification).parameters.items()}

    parser = _Parser(
        prog="cohere",
        description="Coherent states for the hydrogen atom: solving, traces, fields, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # main installs a --config file as their defaults for one call
    config_help = "key=value file of option defaults"

    p = sub.add_parser("solve", help="solve for the scale matching a target mean level")
    p.add_argument("--alpha", type=_real_option, required=True, help="stretch exponent of the weight")
    p.add_argument("--mean", type=_real_option, required=True, help="target mean principal quantum number")
    p.add_argument("--gamma", type=_real_option, default=0.0, help="phase; the state at time t has gamma + t")
    p.add_argument("--eccentricity", type=_real_option, default=0.0, help="Kepler eccentricity for the angular factor")
    p.add_argument("--tail-eps", type=_real_option, default=DEFAULT_TAIL_EPS, help="weight outside the level window")
    p.add_argument("--tol", type=_real_option, default=tol, help="relative tolerance on the mean")
    p.add_argument("--config", default=None, help=config_help)
    p.add_argument("--output", "-o", default="state.desc", help="state descriptor path")

    p = sub.add_parser("autocorr", help="autocorrelation trace to CSV")
    p.add_argument("--descriptor", required=True)
    p.add_argument("--t-start", type=_real_option, default=0.0, help="start of the uniform time range")
    p.add_argument("--t-end", type=_real_option, default=None, help="defaults to 1.1x the revival time")
    p.add_argument("--samples", type=_int_option, default=10001, help="uniform samples in the range")
    p.add_argument("--refine-near-revivals", type=_int_option, default=0,
                   help="extra samples added around each fractional revival time")
    p.add_argument("--config", default=None, help=config_help)
    p.add_argument("--output", "-o", required=True)

    p = sub.add_parser("grid", help="planar field files at selected times")
    p.add_argument("--descriptor", required=True)
    p.add_argument("--width", type=_real_option, required=True)
    p.add_argument("--samples", type=_int_option, required=True)
    p.add_argument("--times", default=None,
                   help="comma-separated times; default: the fractional revival times")
    p.add_argument("--format", choices=("csv", "bin"), default="csv", help="frame file format")
    p.add_argument("--budget", type=_int_option, default=None,
                   help="default: COHERE_GRID_BUDGET, else cohere.position.DEFAULT_GRID_BUDGET")
    p.add_argument("--config", default=None, help=config_help)
    p.add_argument("--output-prefix", "-o", required=True)

    p = sub.add_parser("levels", help="level distribution to CSV")
    p.add_argument("--descriptor", required=True)
    p.add_argument("--output", "-o", required=True)

    p = sub.add_parser("verify", help="resolution-of-identity verification suite")
    p.add_argument("--family", choices=("exponential", "stretched"), default="exponential", help="weight family")
    p.add_argument("--alpha", type=_real_option, default=None, help="stretch exponent of the weight")
    p.add_argument("--n-max", type=_int_option, default=verify["n_max"],
                   help="levels in the combined identity")
    p.add_argument("--su2-max-two-j", type=_int_option, default=verify["su2_max_two_j"],
                   help="largest 2j of the spin checks")
    p.add_argument("--polar-order", type=_int_option, default=verify["polar_order"],
                   help="polar nodes of the sphere rule")
    p.add_argument("--azimuthal-count", type=_int_option, default=verify["azimuthal_count"],
                   help="azimuthal nodes of the rule")
    p.add_argument("--full-tol", type=_real_option, default=verify["full_tol"],
                   help="tolerance of the combined identity")
    p.add_argument("--config", default=None, help=config_help)
    p.add_argument("--output", "-o", default=None, help="write the JSON report here")

    p = sub.add_parser("weights", help="weight-function utilities")
    wsub = p.add_subparsers(dest="weights_command", required=True)
    m = wsub.add_parser("moments", help="log-moment table")
    m.add_argument("--family", choices=("exponential", "stretched"), default="exponential", help="weight family")
    m.add_argument("--alpha", type=_real_option, default=None)
    m.add_argument("--n-max", type=_int_option, required=True)
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

    if args.alpha <= 0:
        raise UsageError("--alpha must be positive")
    if args.mean <= 1:
        raise UsageError("--mean is a mean principal quantum number and must exceed 1")
    if not 0.0 <= args.eccentricity < 1.0:
        raise UsageError("--eccentricity must lie in [0, 1)")
    if not 0.0 < args.tail_eps < 1.0:
        raise UsageError("--tail-eps must lie in (0, 1)")

    ln_s = solve_scale_ln(args.alpha, args.mean, tol=args.tol, tail_eps=args.tail_eps)
    if args.eccentricity > 0:
        angular = ellipse_to_angular(args.eccentricity)
    else:
        angular = AngularParams(0.0, 0.0)
    state = build_state(
        WeightSpec.stretched(args.alpha), None, args.gamma, angular,
        tail_eps=args.tail_eps, ln_s=ln_s,
    )
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
    if args.samples < 2:
        raise UsageError("--samples must be at least 2")
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
        DEFAULT_GRID_BUDGET,
        GridSpec,
        field_frames,
        write_field_binary,
        write_field_csv,
    )
    from cohere.state import _FMT, mean_level, read_descriptor

    budget = args.budget
    if budget is None:
        env_budget = os.environ.get("COHERE_GRID_BUDGET")
        budget = _integer(env_budget, "COHERE_GRID_BUDGET") if env_budget else DEFAULT_GRID_BUDGET
    if args.samples < 2:
        raise UsageError("--samples must be at least 2")
    if args.width <= 0:
        raise UsageError("--width must be positive")

    state = read_descriptor(args.descriptor)
    grid = GridSpec(width=args.width, samples=args.samples)
    if args.times:
        schedule = [
            (f"t{i}", _real(v, "each --times entry"))
            for i, v in enumerate(str(args.times).split(","))
        ]
    else:
        t_revival = hydrogen.revival_time(mean_level(state, principal=True))
        schedule = hydrogen.fractional_revival_times(t_revival)

    write = write_field_csv if args.format == "csv" else write_field_binary
    frames = field_frames(state, grid, [t for _, t in schedule], budget=budget)
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
        MAX_LEVELS,
        InsufficientOrderError,
        report_json,
        report_text,
        standard_verification,
    )

    if not 1 <= args.n_max <= MAX_LEVELS:
        raise UsageError(f"--n-max must lie in 1..{MAX_LEVELS}")
    if args.su2_max_two_j < 0:
        raise UsageError("--su2-max-two-j must be nonnegative")
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

    if args.n_max < 0:
        raise UsageError("--n-max must be nonnegative")
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
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # a second parse, so that explicit flags win over the file; the
            # shared parser then gets its built-in defaults back
            subcommand = parser.commands[args.command]
            config = _config_defaults(subcommand, args.config)
            built_in = {key: subcommand.get_default(key) for key in config}
            subcommand.set_defaults(**config)
            try:
                args = parser.parse_args(argv)
            finally:
                subcommand.set_defaults(**built_in)
        # looked up at call time, so a wrapped cmd_* binding is the one called
        command = {"solve": cmd_solve, "autocorr": cmd_autocorr, "grid": cmd_grid,
                   "levels": cmd_levels, "verify": cmd_verify, "weights": cmd_weights_moments}
        return command[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # descriptor, numerical and budget failures
        from cohere.position import BudgetExceededError
        from cohere.state import DescriptorError

        if isinstance(exc, BudgetExceededError):
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
