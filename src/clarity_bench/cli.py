"""Command-line front door: generate, score, report.

Each command imports its own modules: `score` and `report` load the
scorer (`harness`, `hearing_aid`, `metrics`) inside their branches, so
`generate` runs on the render modules alone. No command loads SciPy;
the program runs on NumPy alone.

Every bad input is raised as ValueError (or OSError, for a file that
cannot be opened) with the file or scene it concerns in its text; main
prints it as one `error:` line on stderr and returns 1.
"""

import argparse
import sys

from .scenes import FIDELITY_NAMES, generate_dataset

_BUNDLED = "__bundled__"


def build_parser():
    parser = argparse.ArgumentParser(
        prog="clarity-bench",
        description="Seeded hearing-aid listening-scene benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="render a seeded scene dataset")
    gen.add_argument("--n", type=int, required=True, help="number of scenes")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--fidelity", choices=FIDELITY_NAMES, default="simulated")
    gen.add_argument("--out", required=True, help="output directory")

    score = sub.add_parser("score", help="score a dataset with the baseline system")
    score.add_argument("--dataset", required=True, help="dataset manifest.json")
    score.add_argument("--audiogram", help="audiogram JSON; default flat 40 dB HL")
    score.add_argument("--out", required=True, help="scores CSV path")

    rep = sub.add_parser("report", help="verify score tables and leaderboard data")
    rep.add_argument("--scores", nargs="+", default=[], help="scores CSV file(s)")
    rep.add_argument(
        "--paper-table",
        nargs="?",
        const=_BUNDLED,
        default=None,
        help="published leaderboard CSV (no value: use the bundled table)",
    )
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            manifest = generate_dataset(
                args.out, count=args.n, seed=args.seed, fidelity=args.fidelity
            )
            print(manifest)
        elif args.command == "score":
            from .harness import score_dataset, summary_line, write_run_manifest, write_scores_csv
            from .hearing_aid import load_audiogram

            audiogram = load_audiogram(args.audiogram) if args.audiogram else None
            run = score_dataset(args.dataset, audiogram=audiogram)
            write_scores_csv(run, args.out)
            write_run_manifest(run, args.out + ".run.json")
            print(summary_line(run["records"]))
            print(args.out)
        elif args.command == "report":
            from .harness import load_published_results, report_published, report_scores

            if not args.scores and args.paper_table is None:
                parser.error("report needs --scores and/or --paper-table")
            if args.scores:
                print(report_scores(args.scores))
            if args.paper_table is not None:
                path = None if args.paper_table == _BUNDLED else args.paper_table
                print(report_published(load_published_results(path)))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
