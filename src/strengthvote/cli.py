"""Command line front end.

Subcommands: evaluate an instance file under a rule, emit hard instances from
the generator families, tabulate bound curves over thresholds, hunt for
high-distortion instances, and run the statistical verification suites.
Exit codes: 0 success, 1 verification failure or violated guarantee, 2 usage
or malformed input.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .distortion_lab import (LOWER_BOUND_KINDS, evaluate_instance, generate_lower_bound,
                             json_number, lower_bound_target, natural_rule, report_csv,
                             report_to_dict)
from .metric_core import instance_to_doc, load_instance, save_instance
from .rules import RULE_KINDS, Rule, bound_value
from .search_oracle import SPACES, SUITES, adversarial_search, verify_suite
from .tournament import copeland_winner, majority_graph, uncovered_set


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _parse_taus(text: str | None) -> tuple[float, ...]:
    """The thresholds of a --taus value, () when it is absent."""
    if text is None:
        return ()
    fields = text.split(",")
    if not all(map(str.strip, fields)):
        raise ValueError(f"--taus has an empty field: {text!r}")
    return tuple(map(float, fields))


def _build_rule(args) -> Rule:
    return Rule(args.rule, args.tau, _parse_taus(args.taus) or None)


def _check_at_least(args, **lows) -> None:
    """Reject an integer flag below its least value, naming the flag."""
    for name, low in lows.items():
        value = getattr(args, name)
        if value < low:
            raise ValueError(f"--{name.replace('_', '-')} must be at least {low}, got {value}")


def _check_finite(args, *names) -> None:
    """Reject a float flag that is infinite or NaN, naming the flag."""
    for name in names:
        value = getattr(args, name)
        if not math.isfinite(value):
            raise ValueError(f"--{name.replace('_', '-')} must be finite, got {value}")


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_summary(summary: dict, inst, out: str | None) -> int:
    """Print a command's JSON summary with the instance inline, or saved to out."""
    if out:
        save_instance(inst, out)
        summary["instance_path"] = out
    else:
        summary["instance"] = instance_to_doc(inst)
    sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    return 0


def _cmd_evaluate(args) -> int:
    inst = load_instance(args.instance)
    rule = _build_rule(args)
    report = evaluate_instance(inst, rule)
    if args.format == "csv":
        text = "label,winner,delta,rho,bound,margin\n" + report_csv(report, args.instance) + "\n"
    else:
        payload = report_to_dict(report)
        payload["rule"] = rule.label()
        if len(inst.candidates) > 2:
            graph = majority_graph(inst, rule)
            payload["copeland_winner"] = copeland_winner(graph)
            payload["uncovered_set"] = sorted(uncovered_set(graph))
        text = json.dumps(payload, indent=2) + "\n"
    _emit(text, args.out)
    return 0


def _cmd_lowerbound(args) -> int:
    _check_at_least(args, n=1)
    if not 0.0 < args.epsilon < math.inf:
        raise ValueError(f"--epsilon must be positive and finite, got {args.epsilon}")
    taus = _parse_taus(args.taus)
    inst = generate_lower_bound(args.kind, taus, args.epsilon, args.n)
    report = evaluate_instance(inst, natural_rule(args.kind, taus))
    return _write_summary({
        "kind": args.kind,
        "taus": list(taus),
        "epsilon": args.epsilon,
        "target": json_number(lower_bound_target(args.kind, taus)),
        "achieved": json_number(report.delta),
        "winner": report.winner,
    }, inst, args.out)


def _svg_curve(points: list[tuple[float, float]], label: str) -> str:
    width, height, pad = 640, 400, 50
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi += 1.0
    if y_hi == y_lo:
        y_hi += 1.0

    def sx(x):
        return pad + (x - x_lo) / (x_hi - x_lo) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y_lo) / (y_hi - y_lo) * (height - 2 * pad)

    path = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in points)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" '
        f'stroke="black"/>\n'
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>\n'
        f'<polyline points="{path}" fill="none" stroke="steelblue" stroke-width="1.5"/>\n'
        f'<text x="{width // 2}" y="20" text-anchor="middle" font-size="14">{label}</text>\n'
        f'<text x="{pad}" y="{height - pad + 20}" font-size="11">{_fmt(x_lo)}</text>\n'
        f'<text x="{width - pad}" y="{height - pad + 20}" text-anchor="end" font-size="11">'
        f'{_fmt(x_hi)}</text>\n'
        f'<text x="{pad - 5}" y="{height - pad}" text-anchor="end" font-size="11">'
        f'{_fmt(y_lo)}</text>\n'
        f'<text x="{pad - 5}" y="{pad + 5}" text-anchor="end" font-size="11">'
        f'{_fmt(y_hi)}</text>\n'
        f"</svg>\n"
    )


def _cmd_curve(args) -> int:
    # rule2 admits only tau > 1, so its default grid skips tau = 1
    first = int(args.rule == "rule2" and args.tau_min is None)
    args.tau_min = 1.0 if args.tau_min is None else args.tau_min
    _check_finite(args, "tau_min", "tau_max")
    _check_at_least(args, steps=2, num_candidates=2)
    if not args.tau_max > args.tau_min:
        raise ValueError("--tau-max must exceed --tau-min")
    step = (args.tau_max - args.tau_min) / (args.steps - 1)
    points = []
    for i in range(first, args.steps):
        tau = args.tau_min + i * step
        reads = {"rule4": {"scheme": (tau,)}, "rule5": {}}.get(args.rule, {"tau": tau})
        points.append((tau, bound_value(Rule(args.rule, **reads), args.num_candidates)))
    if args.format == "csv":
        text = "tau,bound\n" + "\n".join(f"{_fmt(t)},{_fmt(b)}" for t, b in points) + "\n"
    elif args.format == "json":
        doc = {"rule": args.rule, "num_candidates": args.num_candidates,
               "points": [[json_number(t), json_number(b)] for t, b in points]}
        text = json.dumps(doc, indent=2) + "\n"
    else:
        label = f"{args.rule}: distortion bound vs threshold ({args.num_candidates} candidates)"
        text = _svg_curve(points, label)
    _emit(text, args.out)
    return 0


def _cmd_search(args) -> int:
    _check_at_least(args, seed=0, grid=0, n_instances=0, voters_max=1)
    rule = _build_rule(args)
    inst, achieved = adversarial_search(rule, seed=args.seed, grid=args.grid,
                                        n_instances=args.n_instances,
                                        voters_max=args.voters_max, space=args.space)
    bound = bound_value(rule, 2)
    return _write_summary({
        "rule": rule.label(),
        "achieved": json_number(achieved),
        "bound": json_number(bound),
        "ratio": json_number(achieved / bound),
        "voters": len(inst.voters),
    }, inst, args.out)


def _cmd_verify(args) -> int:
    _check_at_least(args, seed=0)
    report = verify_suite(args.suite, seed=args.seed,
                          on_check=_print_timing if args.timings else None)
    text = json.dumps(report, indent=2) + "\n"
    _emit(text, args.out)
    if args.out:
        sys.stdout.write(("PASS" if report["passed"] else "FAIL") + f" -> {args.out}\n")
    return 0 if report["passed"] else 1


def _print_timing(check: dict, seconds: float) -> None:
    print(f"{check['name']}: {check['cases']} cases in {seconds:.3f} s", file=sys.stderr)


def _add_rule_flags(parser):
    parser.add_argument("--rule", required=True, choices=RULE_KINDS)
    parser.add_argument("--tau", type=float, default=None, help="threshold for rule1/rule2/rule3")
    parser.add_argument("--taus", default=None, help="comma-separated thresholds for rule4")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="strengthvote",
        description="Metric voting with coarse preference-strength reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("evaluate", help="run a rule on an instance file")
    ev.add_argument("--instance", required=True, help="instance JSON path")
    _add_rule_flags(ev)
    ev.add_argument("--format", choices=("json", "csv"), default="json")
    ev.add_argument("--out", default=None)
    ev.set_defaults(func=_cmd_evaluate)

    lb = sub.add_parser("lowerbound", help="emit a hard instance from a generator family")
    lb.add_argument("--kind", required=True, choices=LOWER_BOUND_KINDS)
    lb.add_argument("--taus", default=None, help="thresholds the family is aimed at")
    lb.add_argument("--epsilon", type=float, default=1e-6)
    lb.add_argument("--n", type=int, default=1, help="voters per group")
    lb.add_argument("--out", default=None, help="write the instance JSON here")
    lb.set_defaults(func=_cmd_lowerbound)

    cv = sub.add_parser("curve", help="distortion bound as a function of the threshold")
    cv.add_argument("--rule", required=True, choices=RULE_KINDS)
    cv.add_argument("--tau-min", type=float, default=None)
    cv.add_argument("--tau-max", type=float, default=4.0)
    cv.add_argument("--steps", type=int, default=121)
    cv.add_argument("--num-candidates", type=int, default=2)
    cv.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    cv.add_argument("--out", default=None)
    cv.set_defaults(func=_cmd_curve)

    se = sub.add_parser("search", help="hunt for high-distortion instances")
    _add_rule_flags(se)
    se.add_argument("--seed", type=int, default=42)
    se.add_argument("--grid", type=int, default=400)
    se.add_argument("--n-instances", type=int, default=200)
    se.add_argument("--voters-max", type=int, default=8)
    se.add_argument("--space", choices=SPACES, default="line")
    se.add_argument("--out", default=None, help="write the found instance JSON here")
    se.set_defaults(func=_cmd_search)

    vf = sub.add_parser("verify", help="run the statistical verification suites")
    vf.add_argument("--suite", required=True, choices=SUITES)
    vf.add_argument("--seed", type=int, default=42)
    vf.add_argument("--out", default=None)
    vf.add_argument("--timings", action="store_true",
                    help="write each check's case count and wall time to stderr")
    vf.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AssertionError as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
