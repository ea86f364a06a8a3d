"""Command-line front end.

Subcommands:

* ``run`` — simulate a scenario file, stream the log to CSV.
* ``emg-pipeline`` — process a recorded sEMG trace (optionally gated by a
  shank-yaw motion stream) into envelope/activation/force/shift columns.
* ``analyze-stability`` — certify a named support posture; prints
  key=value lines (verdict, margin, the finite-difference cross-check's
  relative error and the equilibrium residual) and the stiffness-matrix
  eigenvalues on stdout.
* ``gen-emg`` — synthesize a deterministic sEMG trace from an activation
  profile.

Exit codes: 0 success, 1 validation error (bad config, bad file), 2
numeric failure (singularity, blow-up).  Diagnostics go to stderr and are
controlled by the ``SUPERLIMB_LOG`` environment variable
(``debug|info|warn``); data never mixes with diagnostics.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .emg import (
    EmgConfig,
    HillParams,
    load_motion_csv,
    load_trace_csv,
    run_pipeline,
    write_pipeline_csv,
    write_trace_csv,
)
from .errors import NumericError, SuperlimbError, ValidationError
from .harness import generate_emg, run_scenario
from .scenario import load_posture, load_profile, load_scenario
from .stability import stabilizing_servo_stiffness, stiffness_matrix_kp

log = logging.getLogger("superlimb")


class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage problems as validation errors so the
    documented exit-code contract holds."""

    def error(self, message):
        raise ValidationError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="superlimb-sim", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_run = sub.add_parser("run", help="simulate a scenario to CSV")
    p_run.add_argument("--config", required=True, help="scenario JSON file")
    p_run.add_argument("--out", required=True, help="output log CSV")

    p_emg = sub.add_parser("emg-pipeline", help="process an sEMG trace CSV")
    p_emg.add_argument("--in", dest="trace", required=True, help="trace CSV (t,ch1,...)")
    p_emg.add_argument("--motion", default=None, help="shank yaw CSV (t,yaw_rad)")
    p_emg.add_argument("--out", required=True, help="output CSV")
    p_emg.add_argument("--gain", type=float, default=EmgConfig.gain,
                       help="equilibrium shift per newton (m/N)")
    p_emg.add_argument("--threshold", type=float, default=EmgConfig.threshold,
                       help="gate-on yaw magnitude (rad)")
    p_emg.add_argument("--hysteresis", type=float, default=EmgConfig.hysteresis,
                       help="gate hysteresis width (rad)")
    p_emg.add_argument("--f-max", type=float, default=HillParams.f_max,
                       help="maximal muscle force (N)")
    p_emg.add_argument("--mvc", type=float, default=HillParams.mvc_reference,
                       help="envelope level mapping to full activation")
    p_emg.add_argument("--band", type=float, nargs=2, default=list(EmgConfig.band),
                       metavar=("LO", "HI"), help="band-pass corners (Hz)")
    p_emg.add_argument("--window", type=float, default=EmgConfig.window,
                       help="RMS window (s)")

    p_stab = sub.add_parser("analyze-stability", help="certify a support posture")
    p_stab.add_argument("--config", required=True, help="config JSON with a 'stability' section")
    p_stab.add_argument("--servo-margin", type=float, default=None,
                        help="also report the minimal uniform servo stiffness "
                             "reaching this eigenvalue margin")

    p_gen = sub.add_parser("gen-emg", help="synthesize an sEMG trace")
    p_gen.add_argument("--profile", required=True, help="activation profile JSON")
    p_gen.add_argument("--seed", type=int, required=True, help="RNG seed")
    p_gen.add_argument("--out", required=True, help="output trace CSV")
    p_gen.add_argument("--mvc", type=float, default=HillParams.mvc_reference,
                       help="target envelope at full activation")
    return parser


def _cmd_run(args) -> int:
    scenario = load_scenario(args.config)
    log.info("scenario %s: %d steps at dt=%g", args.config,
             scenario.sim.n_steps, scenario.sim.dt)
    sim_log = run_scenario(scenario)
    sim_log.to_csv(args.out)
    log.info("wrote %d records to %s", len(sim_log), args.out)
    return 0


def _cmd_emg_pipeline(args) -> int:
    trace = load_trace_csv(args.trace)
    motion = load_motion_csv(args.motion) if args.motion else None
    hill = HillParams(f_max=args.f_max, mvc_reference=args.mvc)
    result = run_pipeline(
        trace,
        hill,
        gate_threshold=args.threshold,
        gate_hysteresis=args.hysteresis,
        gain=args.gain,
        motion=motion,
        band=(args.band[0], args.band[1]),
        window=args.window,
    )
    write_pipeline_csv(args.out, result)
    log.info("wrote %d samples to %s", result.t.size, args.out)
    return 0


def _cmd_analyze_stability(args) -> int:
    posture, section = load_posture(args.config)
    report = stiffness_matrix_kp(posture)
    lines = [
        f"posture={section['posture']}",
        f"mass={repr(float(posture.mass))}",
        f"is_stable={'true' if report.is_stable else 'false'}",
        f"margin={repr(float(report.margin))}",
        f"diagnostic_mismatch={'true' if report.diagnostic_mismatch else 'false'}",
        f"crosscheck_rel_err={repr(report.crosscheck_rel_err)}",
        f"equilibrium_residual={repr(report.equilibrium_residual)}",
    ]
    for i, ev in enumerate(report.eigenvalues):
        lines.append(f"eig{i}={repr(float(ev))}")
    if args.servo_margin is not None:
        alpha = stabilizing_servo_stiffness(posture, margin=args.servo_margin)
        lines.append(f"servo_alpha={repr(float(alpha))}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_gen_emg(args) -> int:
    profile = load_profile(args.profile)
    if args.seed < 0:
        raise ValidationError("--seed must be >= 0")
    try:
        trace = generate_emg(profile, args.seed, mvc_reference=args.mvc)
    except ValidationError as exc:
        if exc.key != "mvc_reference":
            raise
        raise ValidationError(f"--mvc {exc.reason}") from exc
    write_trace_csv(args.out, trace)
    log.info("wrote %d samples to %s", trace.n_samples, args.out)
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "emg-pipeline": _cmd_emg_pipeline,
    "analyze-stability": _cmd_analyze_stability,
    "gen-emg": _cmd_gen_emg,
}


def _setup_logging():
    level_name = os.environ.get("SUPERLIMB_LOG", "warn").lower()
    level = {"debug": logging.DEBUG, "info": logging.INFO,
             "warn": logging.WARNING}.get(level_name, logging.WARNING)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    log.addHandler(handler)
    log.setLevel(level)


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    except SuperlimbError as exc:  # base-class fallbacks count as validation
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
