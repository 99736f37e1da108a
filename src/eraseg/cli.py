"""Command-line pipeline: build dictionaries, train, segment, evaluate, sweep.

Corpus arguments are ERA=PATH pairs (one file of pre-segmented sentences
per era).  stdout carries only data; progress and the resolved
configuration go to stderr.  Exit codes: 0 ok, 1 usage or configuration
error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

from .config import FUSION_MODES, SWITCH_MODES, Config, load_config
from .corpus import RawCorpus, load_corpus, read_lines
from .errors import ConfigError, DataError, NumericError
from .lexicon import build_lexicon, load_lexicon
from .metrics import era_accuracy, format_report, oov_recall, score_segmentation
from .trainer import (
    Checkpoint,
    predict_sentence,
    prepare_sentence,
    segment,
    split_corpus,
    train,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

DEV_FRACTION = 0.1

ALPHA_GRID = tuple(round(i / 10, 1) for i in range(11))
MODE_GRID = tuple(itertools.product(SWITCH_MODES, FUSION_MODES))


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the exit-code scheme."""

    def error(self, message):
        raise ConfigError(message)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _parse_pairs(pairs: list[str]) -> list[tuple[int, Path]]:
    out = []
    for item in pairs:
        era_text, sep, path = item.partition("=")
        if not sep or not path:
            raise ConfigError(f"corpus argument must look like ERA=PATH, got {item!r}")
        try:
            era = int(era_text)
        except ValueError:
            raise ConfigError(f"bad era id in {item!r}") from None
        if era < 0:
            raise ConfigError(f"era id must be nonnegative, got {era}")
        out.append((era, Path(path)))
    return out


def _load_merged_corpus(pairs: list[tuple[int, Path]], max_len: int) -> RawCorpus:
    sentences = []
    names = []
    for era, path in pairs:
        corpus = load_corpus(path, era, max_len=max_len)
        sentences.extend(corpus.sentences)
        names.append(f"{era}={path}")
    return RawCorpus(tuple(sentences), "+".join(names))


def _overrides(args) -> dict[str, str]:
    items: dict[str, str] = {}
    for setting in getattr(args, "set", None) or []:
        key, sep, value = setting.partition("=")
        if not sep:
            raise ConfigError(f"--set expects KEY=VALUE, got {setting!r}")
        items[key.strip()] = value
    if getattr(args, "alpha", None) is not None:
        items["alpha"] = str(args.alpha)
    if getattr(args, "seed", None) is not None:
        items["seed"] = str(args.seed)
    if getattr(args, "mode", None) is not None:
        items["switch_mode"] = args.mode
    return items


def _resolve_config(args) -> Config:
    config = load_config(getattr(args, "config", None), _overrides(args))
    _log("resolved config:")
    for line in config.to_text().rstrip("\n").splitlines():
        _log(f"  {line}")
    return config


def cmd_build_dict(args) -> int:
    config = _resolve_config(args)
    pairs = _parse_pairs(args.corpora)
    corpus = _load_merged_corpus(pairs, config.max_len)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for era in sorted({era for era, _ in pairs}):
        lex = build_lexicon(corpus, era, config.ngram_min_count, config.max_ngram)
        path = out_dir / f"era{era}.dict"
        lex.save(path)
        _log(f"era {era}: {len(lex)} entries -> {path}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = _resolve_config(args)
    out = Path(args.out)
    if out.is_dir() or not out.parent.is_dir():  # fail before training, not after
        raise DataError(f"cannot write checkpoint to {out}: not a file in an existing directory")
    pairs = _parse_pairs(args.corpora)
    corpus = _load_merged_corpus(pairs, config.max_len)
    lexicons = None
    if args.dict_dir is not None:
        dict_dir = Path(args.dict_dir)
        lexicons = tuple(load_lexicon(dict_dir / f"era{d}.dict", d) for d in range(config.eras))
    train_part, dev_part = split_corpus(corpus, DEV_FRACTION, config.seed)
    _log(f"training on {len(train_part)} sentences, validating on {len(dev_part)}")

    def log_epoch(stats):
        dev = "NA" if stats.dev_f1 is None else f"{stats.dev_f1:.4f}"
        _log(
            f"epoch {stats.epoch}: loss={stats.mean_loss:.4f} "
            f"cws={stats.mean_cws:.4f} disc={stats.mean_disc:.4f} dev_f1={dev}"
        )

    ckpt = train(train_part, dev_part, config, lexicons=lexicons, on_epoch=log_epoch)
    ckpt.save(out)
    _log(f"checkpoint written to {out}")
    dev = "NA" if ckpt.dev_f1 is None else f"{ckpt.dev_f1:.4f}"
    print(f"dev_f1={dev} epoch={ckpt.epoch}")
    return EXIT_OK


def cmd_segment(args) -> int:
    ckpt = Checkpoint.load(args.checkpoint)
    if args.era is not None and not (0 <= args.era < ckpt.config.eras):
        raise ConfigError(f"--era {args.era} out of range for {ckpt.config.eras} eras")
    out_lines = []
    for line in read_lines(args.input):
        if not line.strip():
            out_lines.append("")
            continue
        result = segment(line, ckpt, force_era=args.era)
        out_lines.append(" ".join(result.words) + f"\tera={result.era}")
    text = "\n".join(out_lines) + ("\n" if out_lines else "")
    if args.out is not None:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_eval(args) -> int:
    ckpt = Checkpoint.load(args.checkpoint)
    pairs = _parse_pairs(args.corpora)
    corpus = _load_merged_corpus(pairs, ckpt.config.max_len)
    bad = sorted({s.era_id for s in corpus.sentences if s.era_id >= ckpt.config.eras})
    if bad:
        raise DataError(f"era ids {bad} out of range for {ckpt.config.eras} eras")

    gold_words, pred_words, gold_eras, pred_eras = [], [], [], []
    for sent in corpus.sentences:
        prep = prepare_sentence(
            sent.words, sent.era_id, ckpt.vocab, ckpt.lexicons, ckpt.config.max_ngram
        )
        words, era, _ = predict_sentence(ckpt.params, prep, ckpt.config)
        gold_words.append(list(sent.words))
        pred_words.append(list(words))
        gold_eras.append(sent.era_id)
        pred_eras.append(era)

    rows = []
    for era in sorted({e for e, _ in pairs}):
        idx = [i for i, e in enumerate(gold_eras) if e == era]
        g = [gold_words[i] for i in idx]
        p = [pred_words[i] for i in idx]
        rows.append((era, score_segmentation(g, p), oov_recall(g, p, ckpt.train_words[era])))
    pooled_known = frozenset().union(*ckpt.train_words)
    rows.append(
        (
            "all",
            score_segmentation(gold_words, pred_words),
            oov_recall(gold_words, pred_words, pooled_known),
        )
    )
    print(format_report(rows, era_acc=era_accuracy(gold_eras, pred_eras)))
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = _resolve_config(args)
    pairs = _parse_pairs(args.corpora)
    corpus = _load_merged_corpus(pairs, config.max_len)
    train_part, dev_part = split_corpus(corpus, DEV_FRACTION, config.seed)

    if args.grid == "alpha":
        settings = [(f"alpha={a}", config.with_overrides({"alpha": str(a)})) for a in ALPHA_GRID]
    else:
        settings = [
            (f"{sw}+{fu}", config.with_overrides({"switch_mode": sw, "fusion": fu}))
            for sw, fu in MODE_GRID
        ]

    print(f"{'setting':<14} {'dev_f1':>8} {'epoch':>6}")
    for label, cell_config in settings:
        _log(f"sweep cell: {label}")
        ckpt = train(train_part, dev_part, cell_config)
        dev = "NA" if ckpt.dev_f1 is None else f"{ckpt.dev_f1:.4f}"
        print(f"{label:<14} {dev:>8} {ckpt.epoch:>6}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="eraseg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--alpha", type=float, help="loss interpolation weight")
        p.add_argument("--seed", type=int, help="PRNG seed")
        p.add_argument("--mode", choices=SWITCH_MODES, help="switch mode")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override any config key")

    p = sub.add_parser("build-dict", help="build one dictionary file per era")
    p.add_argument("corpora", nargs="+", metavar="ERA=PATH")
    p.add_argument("--out", required=True, help="output directory")
    add_config_flags(p)
    p.set_defaults(func=cmd_build_dict)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("corpora", nargs="+", metavar="ERA=PATH")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--dict-dir", help="directory of eraN.dict files (default: build in memory)")
    add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("segment", help="segment raw lines from a file or stdin")
    p.add_argument("input", nargs="?", help="input file (default: stdin)")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--era", type=int, help="pin memory routing to this era")
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("eval", help="score a checkpoint against gold corpora")
    p.add_argument("corpora", nargs="+", metavar="ERA=PATH")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="train over a grid and tabulate dev F1")
    p.add_argument("corpora", nargs="+", metavar="ERA=PATH")
    p.add_argument("--grid", choices=("alpha", "modes"), default="alpha")
    add_config_flags(p)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        _log(f"error: {exc}")
        return EXIT_USAGE
    except (DataError, OSError) as exc:  # OSError: an output path that cannot be written
        _log(f"error: {exc}")
        return EXIT_DATA
    except NumericError as exc:
        _log(f"error: {exc}")
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
