"""Command-line interface.

Subcommands: gen-data, train, eval, sweep-snapshots, sweep-snr,
sweep-snr-coherent, bench-complexity.  Every run writes its outputs plus
a manifest (config hash, seed, versions) under --out.  Flags that set
run settings override the config, and the commands read only the config.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .detectors import (CLASSICAL_KINDS, NET_KINDS, ClassicalDetector, Detector, DetectorSpec,
                        detector_name, feature_kind, load_detector, save_detector, write_json)
from .experiments import (
    ExperimentConfig,
    SWEEPS,
    bench_complexity,
    dataset_header,
    emit_csv,
    evaluate_detectors,
    generate_trials,
    load_config,
    read_dataset,
    run_sweep,
    train_detector,
    write_dataset,
    write_manifest,
    select_features,
)

ALL_DETECTORS = NET_KINDS + CLASSICAL_KINDS


def _add_common(parser: argparse.ArgumentParser, detector: bool = True):
    parser.add_argument("--config", type=Path, help="TOML config file")
    parser.add_argument("--seed", type=int, help="master seed (overrides config)")
    parser.add_argument("--out", type=Path, default=Path("runs"),
                        help="output directory (default: runs)")
    if detector:
        parser.add_argument("--detector", choices=ALL_DETECTORS, default="ernet")
        parser.add_argument("--fbss", type=int, metavar="M0",
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
    p.add_argument("--num", type=int, help="sample count (default from config)")
    p.add_argument("--snr-db", type=float, dest="test_snr_db", metavar="SNR_DB",
                   help="fixed SNR for test-phase draws")

    p = sub.add_parser("train", help="train a network detector on a dataset file")
    _add_common(p)

    p = sub.add_parser("eval", help="measure a detector's accuracy at one point")
    _add_common(p)
    p.add_argument("--model", type=Path, help="model file (default from --out)")
    p.add_argument("--snr-db", type=float, dest="test_snr_db", metavar="SNR_DB",
                   help="test SNR in dB (default from config)")
    p.add_argument("--snapshots", type=int, dest="num_snapshots", metavar="SNAPSHOTS",
                   help="snapshot count (default from config)")
    p.add_argument("--trials", type=int, dest="num_test", metavar="TRIALS",
                   help="trial count (default from config)")

    for name, sweep in SWEEPS.items():
        axis = "SNR" if sweep.field == "test_snr_db" else "snapshot count"
        mode = "coherent, smoothed" if sweep.coherent else "non-coherent"
        p = sub.add_parser(name, help=f"accuracy versus {axis} ({mode})")
        _add_common(p, detector=False)

    p = sub.add_parser("bench-complexity", help="per-decision operation counts and timings")
    _add_common(p, detector=False)
    return parser


def _load_experiment_config(args) -> ExperimentConfig:
    """The config file (or the defaults) with the flags applied: each
    flag whose dest names a config field, --num to the phase's sample
    count, --fbss to the sub-array size, and a sweep's source coherence.
    Raises ValueError for a flag or file value the config rejects."""
    config = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {f.name: getattr(args, f.name) for f in dataclasses.fields(config)
                 if getattr(args, f.name, None) is not None}
    if getattr(args, "num", None) is not None:
        overrides[f"num_{args.phase}"] = args.num
    if getattr(args, "fbss", None) is not None:
        feature_kind(args.detector, args.fbss)
        overrides["subarray_size"] = args.fbss
    if args.command in SWEEPS:
        overrides["coherent"] = SWEEPS[args.command].coherent
    return dataclasses.replace(config, **overrides)


def _out_file(args, name: str) -> Path:
    """``--out``/``name``, making ``--out`` first: a run that fails before it
    writes its first file leaves no directory behind."""
    args.out.mkdir(parents=True, exist_ok=True)
    return args.out / name


def _cmd_gen_data(args, config: ExperimentConfig):
    phase = args.phase
    num = getattr(config, f"num_{phase}")
    snr = tuple(config.train_snr_db) if phase == "train" else config.test_snr_db
    sub = config.subarray_size if args.fbss else None
    feature = feature_kind(args.detector, sub)
    trials = generate_trials(config, phase=phase, num=num, snr_db=snr, want=(feature,))
    feats = select_features(trials, args.detector, sub)
    name = detector_name(args.detector, sub)
    path = _out_file(args, f"dataset-{name}-{phase}.csv")
    write_dataset(path, feats, trials.labels, config=config)
    write_manifest(args.out, config, f"gen-data --detector {name} --phase {phase}",
                   extra={"dataset": path.name, "num_samples": num})
    print(f"wrote {num} samples to {path}")


def _cmd_train(args, config: ExperimentConfig):
    if args.detector not in NET_KINDS:
        raise ValueError(f"{args.detector} has no trainable parameters")
    out, sub = args.out, config.subarray_size if args.fbss else None
    name = detector_name(args.detector, sub)
    dataset_path = out / f"dataset-{name}-train.csv"
    if not dataset_path.exists():
        raise ValueError(f"{dataset_path} not found; run gen-data first")
    features, labels, info = read_dataset(dataset_path)
    width = DetectorSpec(args.detector, config.num_antennas, sub).feature_size
    for key, value in dataset_header(config, width).items():
        if info.get(key) != value:
            raise ValueError(f"dataset {dataset_path} has {key}={info.get(key)}, "
                             f"but this run has {key}={value}")
    detector, history = train_detector(config, args.detector, features, labels,
                                       subarray_size=sub)
    model_path = _out_file(args, f"model-{name}.json")
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


def _cmd_eval(args, config: ExperimentConfig):
    out, kind, sub = args.out, args.detector, config.subarray_size if args.fbss else None
    if kind in NET_KINDS:
        model_path = args.model or out / f"model-{detector_name(kind, sub)}.json"
        detector: Detector | ClassicalDetector = load_detector(model_path)
        if detector.spec.kind != kind:
            raise ValueError(f"model {model_path} holds {detector.spec.kind}, "
                             f"but --detector is {kind}")
        sub = detector.spec.subarray_size
        if args.fbss not in (None, sub):
            smoothing = f"smoothed at M0={sub}" if sub else "unsmoothed"
            raise ValueError(f"model {model_path} is {smoothing}, but --fbss is {args.fbss}")
        if detector.spec.num_antennas != config.num_antennas:
            raise ValueError(f"model {model_path} is for M={detector.spec.num_antennas}, "
                             f"but num_antennas is {config.num_antennas}")
        config = dataclasses.replace(config, subarray_size=sub or config.subarray_size,
                                     normalize_features=detector.spec.normalize)
    elif args.model is not None:
        raise ValueError(f"--detector {kind} has no model, but --model is {args.model}")
    else:
        detector = ClassicalDetector(kind, sub)
    trials = generate_trials(config, phase="test", num=config.num_test,
                             snr_db=config.test_snr_db, want=(feature_kind(kind, sub),))
    name = detector.name
    accuracy = evaluate_detectors([detector], trials)[name]
    report = {
        "detector": name,
        "accuracy": accuracy,
        "num_trials": config.num_test,
        "snr_db": config.test_snr_db,
        "num_snapshots": config.num_snapshots,
        "seed": config.seed,
    }
    report_path = _out_file(args, f"eval-{name}.json")
    write_json(report_path, report)
    write_manifest(out, config, f"eval --detector {name}", extra={"report": report_path.name})
    print(f"{name}: accuracy {accuracy:.4f} over {config.num_test} trials "
          f"(SNR {config.test_snr_db} dB, N={config.num_snapshots})")


def _cmd_sweep(args, config: ExperimentConfig):
    result = run_sweep(args.command, config)
    csv_path = _out_file(args, f"{args.command}.csv")
    emit_csv(result, csv_path)
    write_manifest(args.out, config, args.command, extra={"csv": csv_path.name})
    print(f"wrote {csv_path}")
    for name in result.detectors:
        cells = " ".join(f"{v:.3f}" for v in result.accuracy[name])
        print(f"  {name:>12}: {cells}")


def _cmd_bench(args, config: ExperimentConfig):
    rows = bench_complexity(config)
    path = _out_file(args, "bench-complexity.json")
    write_json(path, [dataclasses.asdict(row) for row in rows])
    write_manifest(args.out, config, "bench-complexity", extra={"report": path.name})
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


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    **dict.fromkeys(SWEEPS, _cmd_sweep),
    "bench-complexity": _cmd_bench,
}


def main(argv=None) -> int:
    # argparse reads "-1e3" or "-inf" after a space as a flag, so --snr-db (or a prefix
    # of it, which argparse expands) is joined to it.
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(len(argv) - 1)):
        if len(argv[i]) > 2 and "--snr-db".startswith(argv[i]) and argv[i + 1][:2] != "--":
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    args = build_parser().parse_args(argv)
    try:
        config = _load_experiment_config(args)
        _COMMANDS[args.command](args, config)
    except (ValueError, ArithmeticError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not config.identifiable:
        print(f"warning: coherent sources with max_sources={config.max_sources} >= "
              f"subarray_size={config.subarray_size}: the smoothed covariance resolves "
              f"at most {config.subarray_size - 1} sources", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
