"""Command-line entry point.

Subcommands mirror the pipeline stages and compose through the shared
cache directory::

    hinfuse pipeline --config exp.json --out-dir out/
    hinfuse ingest|similarity|factorize|train --config exp.json --out-dir out/
    hinfuse evaluate --config exp.json --out-dir out/   # scores out/model.npz
    hinfuse report --out-dir out/                       # per-group selection

``evaluate`` scores the model on the entity features stored in it, under the
split it was trained on; it runs no similarity or factorize stage and reads
no cache.

Exit status is 0 on success and 1 with a stage-tagged message otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import fmg, hin, metagraph, pipeline


def _run(args, through):
    """Run the stages through ``through`` under the command's config; return (stages, run)."""
    cfg = pipeline.ExperimentConfig.from_json(args.config)
    stages = pipeline.Stages(cfg, args.out_dir, args.cache_dir)
    return stages, stages.run(cfg.seed, through)


def cmd_ingest(args):
    _, run = _run(args, "ingest")
    summary = {
        "entities": {name: ent.count for name, ent in run.store.entities.items()},
        "relations": {name: adj.nnz for name, (_, adj) in run.store.relations.items()},
        "ratings": len(run.ratings),
        "metagraphs": [s.name for s in run.specs],
        "validation": {"errors": run.validation.errors, "warnings": run.validation.warnings},
    }
    path = os.path.join(args.out_dir, "ingest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    print(json.dumps(summary, indent=2))
    return 0


def cmd_similarity(args):
    stages, run = _run(args, "similarity")
    for sim, event in zip(run.sims, stages.cache_events["similarity"]):
        status = "cached" if event["hit"] else "computed"
        print(f"{sim.metagraph}: {sim.shape[0]}x{sim.shape[1]}, nnz={sim.nnz} ({status})")
    return 0


def cmd_factorize(args):
    stages, run = _run(args, "factorize")
    for pair, event in zip(run.pairs, stages.cache_events["factorize"]):
        status = "cached" if event["hit"] else "computed"
        iters = "" if event["hit"] else f" iters={event['iters']}"
        print(f"{pair.metagraph}: rank={pair.rank} method={pair.method}{iters} ({status})")
    return 0


def cmd_train(args):
    stages, run = _run(args, "train")
    stages.save_model(run)
    print(f"selected lambda={run.lam}, nnz={fmg.param_nnz_ratio(run.params):.4f}")
    for entry in run.series:
        print(f"  lambda={entry['lambda']}: rmse_valid={entry['rmse_valid']:.4f} nnz={entry['nnz']:.4f}")
    return 0


def _model_path(args, stage):
    path = os.path.join(args.out_dir, "model.npz")
    if not os.path.exists(path):
        raise pipeline.StageError(stage, f"no model at {path}; run train first")
    return path


def cmd_evaluate(args):
    model = fmg.load_model(_model_path(args, "evaluate"))
    cfg = pipeline.ExperimentConfig.from_json(args.config)
    rmses = pipeline.Stages(cfg, args.out_dir, args.cache_dir).score_model(model, cfg.seed)
    print(json.dumps(rmses, indent=2))
    return 0


def cmd_pipeline(args):
    cfg = pipeline.ExperimentConfig.from_json(args.config)
    report = pipeline.run_pipeline(cfg, args.out_dir, args.cache_dir)
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def cmd_report(args):
    model = fmg.load_model(_model_path(args, "report"))
    rows = pipeline.report_selected(model.params, model.layout, threshold=args.threshold)
    for row in rows:
        flags = ("w" if row["w_selected"] else "-") + ("V" if row["v_selected"] else "-")
        print(f"{row['group']:>24} [{flags}] w_norm={row['w_norm']:.5f} v_norm={row['v_norm']:.5f}")
    print(f"nnz={fmg.param_nnz_ratio(model.params):.4f}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="hinfuse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "ingest": cmd_ingest,
        "similarity": cmd_similarity,
        "factorize": cmd_factorize,
        "train": cmd_train,
        "evaluate": cmd_evaluate,
        "pipeline": cmd_pipeline,
        "report": cmd_report,
    }
    for name, fn in commands.items():
        p = sub.add_parser(name)
        if name != "report":
            p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--out-dir", default="out", help="artifact output directory")
        p.add_argument("--cache-dir", default=None, help="cache directory (default: <out-dir>/cache)")
        if name == "report":
            p.add_argument("--threshold", type=float, default=1e-10, help="selection threshold")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except pipeline.StageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (hin.ValidationError, hin.EdgeFileError, metagraph.MetagraphSyntaxError,
            metagraph.PlanCompileError, ValueError) as exc:
        print(f"[config] {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
