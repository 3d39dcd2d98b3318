"""Command-line entry point for the bundled experiments.

Subcommands: ``classify``, ``sweep-noise``, ``explore``, ``dump-maps`` and
``gen-scenarios``.  All outputs go to the directory given by ``--out``;
failures print one machine-readable JSON line to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bench import (
    dump_fields,
    run_classification_experiment,
    run_exploration_benchmark,
    run_noise_sweep,
    write_output,
)
from .materials import NoiseSpec, bundled_library_path, load_library
from .simulator import (
    TrialConfig,
    generate_builtin_scenarios,
    load_scenario,
    run_trial,
    save_scenario,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hapticbayes",
        description="Bayesian touch-attention experiments: material "
                    "classification and discontinuity-following benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario=False, seeded=True, formatted=True):
        p.add_argument("--materials", type=Path, default=None,
                       help="material parameter file (default: bundled)")
        if scenario:
            p.add_argument("--scenario", type=Path, required=True,
                           help="scenario file")
        if seeded:
            p.add_argument("--seed", type=int, default=0, help="base RNG seed")
        p.add_argument("--out", type=Path, required=True,
                       help="output directory")
        if formatted:
            p.add_argument("--format", choices=("csv", "json"), default="csv",
                           help="output format for tables and reports")

    p = sub.add_parser("classify", help="confusion-matrix experiment")
    common(p)
    p.add_argument("--trials", type=int, default=400,
                   help="trials per material")
    p.add_argument("--samples", type=int, default=5,
                   help="samples integrated per trial")
    p.add_argument("--noise-scale", type=float, default=1.0,
                   help="additive noise scale")

    p = sub.add_parser("sweep-noise", help="accuracy by noise level")
    common(p)
    p.add_argument("--trials", type=int, default=400)
    p.add_argument("--samples", type=int, action="append", default=None,
                   help="sample count; repeat flag for several (default 1 5)")
    p.add_argument("--noise-scale", type=float, action="append", default=None,
                   help="noise scale; repeat flag for several "
                        "(default 1.0 1.5 2.0)")

    p = sub.add_parser("explore", help="exploration benchmark on a scenario")
    common(p, scenario=True)
    p.add_argument("--trials", type=int, default=10, help="seeded trials")
    p.add_argument("--noise-scale", type=float, default=1.0)

    p = sub.add_parser("dump-maps", help="run one trial dumping the "
                                         "attention fields per iteration")
    common(p, scenario=True, formatted=False)
    p.add_argument("--noise-scale", type=float, default=1.0)

    p = sub.add_parser("gen-scenarios", help="write the builtin scenarios")
    common(p, seeded=False, formatted=False)
    return parser


def _library(args):
    return load_library(args.materials or bundled_library_path())


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except Exception as exc:  # surface a single machine-readable line
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}),
              file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    lib = _library(args)

    if args.command == "classify":
        cm = run_classification_experiment(
            lib, args.trials, args.samples,
            NoiseSpec.uniform(args.noise_scale), args.seed)
        path = write_output(cm, "confusion", args.out, args.format)
        print(f"wrote {path} (mean diagonal rate "
              f"{cm.mean_diagonal_rate():.3f})")

    elif args.command == "sweep-noise":
        scales = args.noise_scale or [1.0, 1.5, 2.0]
        k_list = args.samples or [1, 5]
        sweep = run_noise_sweep(lib, [NoiseSpec.uniform(s) for s in scales],
                                args.trials, k_list, args.seed)
        path = write_output(sweep, "noise_sweep", args.out, args.format)
        print(f"wrote {path}")

    elif args.command == "explore":
        scenario = load_scenario(args.scenario, lib)
        config = TrialConfig(noise=NoiseSpec.uniform(args.noise_scale),
                             seed=args.seed)
        report = run_exploration_benchmark(scenario, lib, args.trials, config)
        path = write_output(report, f"report_{scenario.name}", args.out,
                            args.format)
        agg = report.aggregates
        print(f"wrote {path} (mean divergence "
              f"{agg['gamma_per_l']['mean'] * 100:.2f} cm/iteration, "
              f"{agg['loop_closures']}/{len(report.trials)} loop closures)")

    elif args.command == "dump-maps":
        scenario = load_scenario(args.scenario, lib)
        config = TrialConfig(noise=NoiseSpec.uniform(args.noise_scale),
                             seed=args.seed)
        out = Path(args.out)
        snapshots = []

        def dump(k, state):
            dump_fields(state, k, out)
            snapshots.append(k)

        record = run_trial(scenario, lib, config, on_iteration=dump)
        summary = {
            "scenario": scenario.name,
            "seed": config.seed,
            "l": record.l,
            "gamma_m": record.gamma,
            "terminated_by": record.terminated_by,
        }
        out.mkdir(parents=True, exist_ok=True)
        (out / "trial.json").write_text(json.dumps(summary, indent=2) + "\n")
        print(f"wrote {len(snapshots)} iteration snapshots to {out}")

    elif args.command == "gen-scenarios":
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for scenario in generate_builtin_scenarios(lib):
            path = save_scenario(scenario, lib, out / f"{scenario.name}.txt")
            print(f"wrote {path}")

    return 0


if __name__ == "__main__":
    sys.exit(main())
