"""Command-line entry point.

Subcommands: ``fetch-data``, ``train``, ``eval``, ``verify``. Exit codes are
stable: 0 success, 1 usage or config error, 2 digest mismatch / malformed
dataset or checkpoint, 3 network failure, 4 non-finite loss, 5 failed
verification. ``main`` maps each failure to its code in one table.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
import time
from pathlib import Path

from .checkpoint import CheckpointError
from .config import ConfigError, RunConfig, load_datasets
from .data import DatasetFormatError, DigestMismatchError, DownloadError, data_root, fetch_dataset
from .trainer import (
    TrainingDivergedError,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .verify import SUITES, run_suites

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DIGEST = 2
EXIT_NETWORK = 3
EXIT_DIVERGED = 4
EXIT_VERIFY_FAILED = 5

# Exit code of each failure, by exception type; the first matching row wins.
EXIT_CODES = (
    (ConfigError, EXIT_USAGE),
    ((DigestMismatchError, DatasetFormatError, CheckpointError), EXIT_DIGEST),
    (DownloadError, EXIT_NETWORK),
    (TrainingDivergedError, EXIT_DIVERGED),
)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; our contract says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def cmd_fetch_data(args) -> int:
    dest = args.out or data_root()
    try:
        Path(dest).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create data directory {dest}: {exc.strerror}") from exc
    status = fetch_dataset(dest, url=args.url, sha256=args.sha256)
    if status == "already-verified":
        print(f"already verified: {dest}")
    else:
        print(f"fetched and verified: {dest}")
    return EXIT_OK


def _new_run_dir() -> Path:
    stamp = time.strftime("%Y%m%d-%H%M%S") + f"-{os.getpid()}-{time.time_ns() % 1_000_000}"
    return Path("runs") / f"run-{stamp}"


def cmd_train(args) -> int:
    config = RunConfig.from_file(args.config, seed=args.seed, loss=args.loss)
    out_dir = Path(args.out) if args.out else _new_run_dir()
    # lexists, not exists: a dangling link must not pass for a free path
    for name in ("config.resolved.json", "metrics.csv", "final.ckpt"):
        if os.path.lexists(out_dir / name):
            raise ConfigError(f"{out_dir / name} exists: msn train does not overwrite a run")
    # the directory is made only once the data loads, so that a config or data
    # error leaves none; a path it cannot be made at is refused before that work
    if not next(p for p in (out_dir, *out_dir.parents) if os.path.lexists(p)).is_dir():
        raise ConfigError(f"cannot write run directory {out_dir}: {os.strerror(errno.ENOTDIR)}")
    train_ds, test_ds = load_datasets(config)

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "config.resolved.json").write_text(config.resolved_json())
        result = train(config.train, config.network, train_ds, eval_dataset=test_ds,
                       csv_path=out_dir / "metrics.csv", flip=config.data.flip)
        save_checkpoint(result.state, result.opt_state,
                        [h.xi_state for h in result.state.heads],
                        out_dir / "final.ckpt", iteration=config.train.iterations)
    except OSError as exc:
        raise ConfigError(f"cannot write run directory {out_dir}: {exc.strerror}") from exc
    final_error = evaluate(result.state, test_ds)
    print(f"run_dir={out_dir}")
    print(f"test_error={final_error:.6f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    ckpt_path = Path(args.checkpoint)
    config_path = args.config or ckpt_path.parent / "config.resolved.json"
    config = RunConfig.from_file(config_path)
    state, _, _ = load_checkpoint(ckpt_path, config.network, xi_factory=config.train.xi.state)
    _, test_ds = load_datasets(config, test_only=True)
    print(f"test_error={evaluate(state, test_ds):.6f}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {args.seed}")
    results = run_suites(args.suite, seed=args.seed)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_OK if not failed else EXIT_VERIFY_FAILED


def build_parser() -> _Parser:
    parser = _Parser(prog="msn", description="Separability-loss CNN training kit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    fetch = sub.add_parser("fetch-data", help="download and verify a dataset")
    fetch.add_argument("--dataset", choices=["cifar10"], required=True)
    fetch.add_argument("--out", default=None,
                       help="destination directory (default: $MSN_DATA_DIR or ./data)")
    fetch.add_argument("--url", default=None, help="override the archive URL")
    fetch.add_argument("--sha256", default=None, help="override the pinned digest")
    fetch.set_defaults(func=cmd_fetch_data)

    tr = sub.add_parser("train", help="run training from a JSON config")
    tr.add_argument("--config", required=True)
    tr.add_argument("--seed", type=int, default=None)
    tr.add_argument("--out", default=None,
                    help="output directory (default: a fresh runs/run-* directory)")
    tr.add_argument("--loss", choices=["msl", "ce"], default=None,
                    help="'ce' disables the within-class term on the same code path")
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--config", default=None,
                    help="run config (default: config.resolved.json next to the checkpoint)")
    ev.set_defaults(func=cmd_eval)

    ver = sub.add_parser("verify", help="run the self-check suites")
    ver.add_argument("--suite", choices=list(SUITES), default="all")
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        for types, code in EXIT_CODES:
            if isinstance(exc, types):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise
