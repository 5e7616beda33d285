"""Command-line entry point: the full pipeline as subcommands.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import datetime as dt
import sys

from . import pipeline
from .domain import read_catalog
from .errors import ConfigError, DataError, WidirError
from .inference import read_payloads
from .serving import OnlineStore, ServeConfig, load_fallbacks, serve
from .textio import parse_value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="widir",
        description="Contest-ranking pipeline: synthetic data, features, training, "
        "evaluation, batch inference, serving, and a simulated experiment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_data=True, needs_features=False, needs_model=False):
        p.add_argument("--out", required=True, help="output root directory")
        if needs_data:
            p.add_argument("--data", default=None, help="world directory (default: <out>/data)")
        if needs_features:
            p.add_argument("--features", default=None, help="feature store (default: <out>/features)")
        if needs_model:
            p.add_argument("--model", default=None, help="model file (default: <out>/models/model.bin)")
        p.add_argument("--run-id", default=None, help="explicit run identifier")

    p = sub.add_parser("generate", help="generate the synthetic world")
    common(p, needs_data=False)
    p.add_argument("--config", required=True, help="generator key-value config file")
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("features", help="fit normalization and build daily snapshots")
    common(p)
    p.add_argument("--train-end", required=True, help="last day (ISO) of the training partition")
    p.add_argument("--valid-end", required=True, help="last day (ISO) of the validation partition")

    p = sub.add_parser("train", help="train the ranker on preference pairs")
    common(p, needs_features=True)
    p.add_argument("--config", required=True, help="training key-value config file")

    p = sub.add_parser("eval", help="offline precision/recall against the popularity baseline")
    common(p, needs_features=True, needs_model=True)

    p = sub.add_parser("infer", help="batch-score active players for upcoming matches")
    common(p, needs_features=True, needs_model=True)
    p.add_argument("--as-of", required=True, help="inference day (ISO)")
    p.add_argument("--horizon", type=int, default=3, help="days of upcoming matches to score")

    p = sub.add_parser("serve", help="serve precomputed rankings over HTTP")
    p.add_argument("--payloads", required=True, help="payloads.jsonl from the infer phase")
    p.add_argument("--fallback", default=None, help="contest catalog for popularity fallbacks")
    p.add_argument("--config", default=None, help="serve key-value config file")

    p = sub.add_parser("abtest", help="simulated A/B experiment with difference-in-differences")
    common(p)
    p.add_argument("--config", required=True, help="experiment key-value config file")
    p.add_argument("--payloads", default=None, help="payloads.jsonl for the 'payloads' policy")

    p = sub.add_parser("reproduce", help="re-run a recorded phase and verify artifact digests")
    p.add_argument("run_id")
    p.add_argument("--out", required=True)

    return parser


def _defaults(args) -> tuple[str, str, str]:
    data = getattr(args, "data", None) or f"{args.out}/data"
    features = getattr(args, "features", None) or f"{args.out}/features"
    model = getattr(args, "model", None) or f"{args.out}/models/model.bin"
    return data, features, model


def _day(text: str, flag: str) -> dt.date:
    return parse_value(dt.date, text, "command line", flag)


def _dispatch(args) -> int:
    if args.command == "generate":
        m = pipeline.run_generate(args.out, args.config, args.seed, args.run_id)
        print(f"generate ok: run_id={m.run_id}")
        return 0
    if args.command == "features":
        data, _, _ = _defaults(args)
        m = pipeline.run_features(
            args.out, data, _day(args.train_end, "--train-end"), _day(args.valid_end, "--valid-end"),
            args.run_id,
        )
        print(f"features ok: run_id={m.run_id}")
        return 0
    if args.command == "train":
        data, features, _ = _defaults(args)
        m = pipeline.run_train(args.out, data, features, args.config, args.run_id)
        print(f"train ok: run_id={m.run_id}")
        return 0
    if args.command == "eval":
        data, features, model = _defaults(args)
        m = pipeline.run_eval(args.out, data, features, model, args.run_id)
        print(f"eval ok: run_id={m.run_id}")
        for name, entry in m.outputs.items():
            print(f"  {name}: {entry['path']}")
        return 0
    if args.command == "infer":
        data, features, model = _defaults(args)
        m = pipeline.run_infer(
            args.out, data, features, model, _day(args.as_of, "--as-of"), args.horizon, args.run_id
        )
        print(f"infer ok: run_id={m.run_id}")
        return 0
    if args.command == "serve":
        config = ServeConfig.load(args.config)
        store = OnlineStore()
        for payload in read_payloads(args.payloads):
            store.put(payload)
        fallback_path = args.fallback or config.fallback_path
        if fallback_path:
            load_fallbacks(store, read_catalog(fallback_path))
        service = serve(store, config)
        host, port = service.address
        print(f"serving on http://{host}:{port} (payloads: {store.payload_count}); Ctrl-C to stop")
        try:
            service.thread.join()
        except KeyboardInterrupt:
            service.close()
        return 0
    if args.command == "abtest":
        data, _, _ = _defaults(args)
        m = pipeline.run_abtest(args.out, data, args.config, args.payloads, args.run_id)
        print(f"abtest ok: run_id={m.run_id}")
        return 0
    if args.command == "reproduce":
        result = pipeline.run_reproduce(args.out, args.run_id)
        for name, entry in result["artifacts"].items():
            if not entry["verified"]:
                print(f"  {name}: skipped (not digest-verified)")
            else:
                status = "match" if entry["match"] else "MISMATCH"
                print(f"  {name}: {status} ({entry['actual'][:12]})")
        print(f"reproduce {'ok' if result['ok'] else 'FAILED'}: run_id={result['run_id']}")
        return 0 if result["ok"] else 2
    raise ConfigError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except WidirError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # internal
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
