"""Command-line interface.

Subcommands: gen-data, train, eval, sweep-snapshots, sweep-snr,
sweep-snr-coherent, bench-complexity.  Every run writes its outputs plus
a manifest (config hash, seed, versions) under --out.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .detectors import (Detector, DetectorSpec, detector_name, feature_kind, load_detector,
                        save_detector)
from .experiments import (
    CLASSICAL_KINDS,
    ClassicalDetector,
    ExperimentConfig,
    NET_KINDS,
    bench_complexity,
    emit_csv,
    evaluate_detectors,
    generate_trials,
    load_config,
    read_dataset,
    train_detector,
    sweep_snapshots,
    sweep_snr_coherent,
    sweep_snr_noncoherent,
    write_dataset,
    write_manifest,
    select_features,
)

ALL_DETECTORS = NET_KINDS + CLASSICAL_KINDS

# Source coherence each sweep runs with, whatever the config says.
_SWEEP_COHERENCE = {"sweep-snapshots": False, "sweep-snr": False, "sweep-snr-coherent": True}


def _count(text: str) -> int:
    """argparse type of the count flags: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _add_common(parser: argparse.ArgumentParser, detector: bool = True):
    parser.add_argument("--config", type=Path, help="flat key=value config file")
    parser.add_argument("--seed", type=int, help="master seed (overrides config)")
    parser.add_argument("--out", type=Path, default=Path("runs"),
                        help="output directory (default: runs)")
    if detector:
        parser.add_argument("--detector", choices=ALL_DETECTORS, default="ernet")
        parser.add_argument("--fbss", type=_count, metavar="M0",
                            help="use the smoothed eigenvalue spectrum with this "
                                 "sub-array size (ernet, ecnet, aic, mdl)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sourcecount",
        description="Source-number detection experiments on a uniform linear array",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a labelled dataset file")
    _add_common(p)
    p.add_argument("--phase", choices=("train", "test"), default="train")
    p.add_argument("--num", type=_count, help="sample count (default from config)")
    p.add_argument("--snr-db", type=float, help="fixed SNR for test-phase draws")

    p = sub.add_parser("train", help="train a network detector on a dataset file")
    _add_common(p)

    p = sub.add_parser("eval", help="measure a detector's accuracy at one point")
    _add_common(p)
    p.add_argument("--model", type=Path, help="model file (default from --out)")
    p.add_argument("--snr-db", type=float, help="test SNR in dB (default from config)")
    p.add_argument("--snapshots", type=_count, help="snapshot count (default from config)")
    p.add_argument("--trials", type=_count, help="trial count (default from config)")

    for name, help_text in (
        ("sweep-snapshots", "accuracy versus snapshot count (non-coherent)"),
        ("sweep-snr", "accuracy versus SNR (non-coherent)"),
        ("sweep-snr-coherent", "accuracy versus SNR (coherent, smoothed)"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p, detector=False)

    p = sub.add_parser("bench-complexity", help="per-decision operation counts and timings")
    _add_common(p, detector=False)
    return parser


def _load_experiment_config(args) -> ExperimentConfig:
    """The config file (or the defaults) with the flags applied: --seed,
    and --fbss and --snr-db where the command has them, and a sweep's
    source coherence.  Raises ValueError for a flag or file value the
    config rejects."""
    config = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {}
    if args.command in _SWEEP_COHERENCE:
        overrides["coherent"] = _SWEEP_COHERENCE[args.command]
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "fbss", None) is not None:
        feature_kind(args.detector, args.fbss)
        overrides["subarray_size"] = args.fbss
    if getattr(args, "snr_db", None) is not None:
        overrides["test_snr_db"] = args.snr_db
    return dataclasses.replace(config, **overrides)


def _cmd_gen_data(args, config: ExperimentConfig) -> int:
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    phase = args.phase
    num = args.num if args.num is not None else (
        config.num_train if phase == "train" else config.num_test)
    snr = tuple(config.train_snr_db) if phase == "train" else config.test_snr_db
    sub = args.fbss
    feature = feature_kind(args.detector, sub)
    trials = generate_trials(config, phase=phase, num=num, snr_db=snr, want=(feature,))
    feats = select_features(trials, args.detector, sub)
    name = detector_name(args.detector, sub)
    path = out / f"dataset-{name}-{phase}.csv"
    write_dataset(path, feats, trials.labels, config=config)
    write_manifest(out, config, f"gen-data --detector {name} --phase {phase}",
                   extra={"dataset": path.name, "num_samples": num})
    print(f"wrote {num} samples to {path}")
    return 0


def _cmd_train(args, config: ExperimentConfig) -> int:
    if args.detector not in NET_KINDS:
        raise ValueError(f"{args.detector} has no trainable parameters")
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    name = detector_name(args.detector, args.fbss)
    dataset_path = out / f"dataset-{name}-train.csv"
    if not dataset_path.exists():
        raise ValueError(f"{dataset_path} not found; run gen-data first")
    features, labels, info = read_dataset(dataset_path)
    mode = "coherent" if config.coherent else "non-coherent"
    width = DetectorSpec(args.detector, config.num_antennas, args.fbss).feature_size
    expected = {"M": config.num_antennas, "N": config.num_snapshots, "feature_dim": width,
                "coherence": mode, "seed": config.seed}
    for key, value in expected.items():
        if info.get(key) != str(value):
            raise ValueError(f"dataset {dataset_path} has {key}={info.get(key)}, "
                             f"but this run has {key}={value}")
    detector, history = train_detector(config, args.detector, features, labels,
                                       subarray_size=args.fbss)
    model_path = out / f"model-{name}.json"
    save_detector(detector, model_path)
    loss_path = out / f"loss-{name}.csv"
    with open(loss_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("epoch,loss\n")
        for epoch, loss in enumerate(history):
            fh.write(f"{epoch},{loss:.17g}\n")
    write_manifest(out, config, f"train --detector {name}",
                   extra={"model": model_path.name, "loss_curve": loss_path.name})
    final = history[-1] if history else float("nan")
    print(f"trained {name}: final loss {final:.6g}, model at {model_path}")
    return 0


def _cmd_eval(args, config: ExperimentConfig) -> int:
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    sub = args.fbss
    name = detector_name(args.detector, sub)
    if args.detector in NET_KINDS:
        model_path = args.model or out / f"model-{name}.json"
        if not Path(model_path).exists():
            raise ValueError(f"model file {model_path} not found")
        detector: Detector | ClassicalDetector = load_detector(model_path)
        sub = detector.spec.subarray_size
        try:
            config = dataclasses.replace(config, subarray_size=sub or config.subarray_size)
        except ValueError as exc:
            raise ValueError(f"model {model_path}: {exc}") from exc
        name = detector.spec.name
    else:
        detector = ClassicalDetector(args.detector, sub)
    snr = config.test_snr_db
    n = args.snapshots if args.snapshots is not None else config.num_snapshots
    trials_count = args.trials if args.trials is not None else config.num_test
    kind = detector.spec.kind if isinstance(detector, Detector) else detector.kind
    feature = feature_kind(kind, sub)
    trials = generate_trials(config, phase="test", num=trials_count, snr_db=snr,
                             num_snapshots=n, want=(feature,))
    accuracy = evaluate_detectors([detector], trials)[name]
    report = {
        "detector": name,
        "accuracy": accuracy,
        "num_trials": trials_count,
        "snr_db": snr,
        "num_snapshots": n,
        "seed": config.seed,
    }
    report_path = out / f"eval-{name}.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
    write_manifest(out, config, f"eval --detector {name}", extra={"report": report_path.name})
    print(f"{name}: accuracy {accuracy:.4f} over {trials_count} trials "
          f"(SNR {snr} dB, N={n})")
    return 0


def _cmd_sweep(args, config: ExperimentConfig) -> int:
    which = args.command
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    runner = {
        "sweep-snapshots": sweep_snapshots,
        "sweep-snr": sweep_snr_noncoherent,
        "sweep-snr-coherent": sweep_snr_coherent,
    }[which]
    result = runner(config)
    csv_path = out / f"{which}.csv"
    emit_csv(result, csv_path)
    write_manifest(out, config, which, extra={"csv": csv_path.name})
    print(f"wrote {csv_path}")
    for name in result.detectors:
        cells = " ".join(f"{v:.3f}" for v in result.accuracy[name])
        print(f"  {name:>12}: {cells}")
    return 0


def _cmd_bench(args, config: ExperimentConfig) -> int:
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    rows = bench_complexity(config)
    doc = [
        {
            "method": row.method,
            "table": dataclasses.asdict(row.table),
            "measured": dataclasses.asdict(row.measured),
            "seconds_per_decision": row.seconds_per_decision,
        }
        for row in rows
    ]
    path = out / "bench-complexity.json"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    write_manifest(out, config, "bench-complexity", extra={"report": path.name})
    print(f"{'method':>8} {'mul/div':>18} {'add/sub':>18} {'log':>14} {'cmp':>14} "
          f"{'us/decision':>12}")
    for row in rows:
        cells = [
            f"{row.table.mul_div}/{row.measured.mul_div}",
            f"{row.table.add_sub}/{row.measured.add_sub}",
            f"{row.table.log}/{row.measured.log}",
            f"{row.table.compare}/{row.measured.compare}",
        ]
        print(f"{row.method:>8} {cells[0]:>18} {cells[1]:>18} {cells[2]:>14} "
              f"{cells[3]:>14} {row.seconds_per_decision * 1e6:>12.2f}")
    print("(cells are closed-form/instrumented counts; eigendecomposition excluded)")
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "sweep-snapshots": _cmd_sweep,
    "sweep-snr": _cmd_sweep,
    "sweep-snr-coherent": _cmd_sweep,
    "bench-complexity": _cmd_bench,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_experiment_config(args)
        status = _COMMANDS[args.command](args, config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not config.identifiable:
        print(f"warning: coherent sources with max_sources={config.max_sources} >= "
              f"subarray_size={config.subarray_size}: the smoothed covariance resolves "
              f"at most {config.subarray_size - 1} sources", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
