"""Command-line simulator front end."""

import argparse
import sys
from dataclasses import replace

from .sim import (
    config_from_mapping,
    config_to_mapping,
    front_position,
    preset,
    read_config_file,
    run,
    write_outputs,
)


def _merge(base: dict, extra: dict) -> dict:
    out = {s: dict(kv) for s, kv in base.items()}
    for section, kv in extra.items():
        out.setdefault(section, {}).update(kv)
    return out


def _parse_overrides(pairs: list) -> dict:
    out = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not value:
            raise ValueError(f"override must look like section.key=value, got {pair!r}")
        section, dot, name = key.partition(".")
        if not dot or not name:
            raise ValueError(f"override key must look like section.key, got {key!r}")
        out.setdefault(section.strip(), {})[name.strip()] = value.strip()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Finite-volume simulator for shallow granular/viscous flows "
                    "on an inclined plane with vertically resolved velocity moments.",
    )
    parser.add_argument("--config", help="INI configuration file")
    parser.add_argument("--preset", type=int, choices=(1, 2, 3, 4),
                        help="start from a built-in scenario (1-4)")
    parser.add_argument("--out", help="output directory (overrides the config)")
    parser.add_argument("--override", action="append", default=[],
                        metavar="SECTION.KEY=VALUE",
                        help="override one config value (repeatable)")
    args = parser.parse_args(argv)
    if args.config is None and args.preset is None:
        parser.error("need --config and/or --preset")
    try:
        mapping = config_to_mapping(preset(args.preset)) if args.preset else {}
        if args.config:
            mapping = _merge(mapping, read_config_file(args.config))
        mapping = _merge(mapping, _parse_overrides(args.override))
        config = config_from_mapping(mapping)
        if args.out:
            config = replace(config, out_dir=args.out)
        result = run(config)
        out_dir = config.out_dir if config.out_dir is not None else "out"
        written = write_outputs(result, out_dir)
        d = result.diagnostics
        final = result.snapshots[-1]
        mass0 = d["mass"][0] if len(d["mass"]) else float(final.h.sum()) * (final.x[1] - final.x[0])
        print(f"completed {len(d['time'])} steps to t={final.time:g}")
        print(f"mass {d['mass'][-1]:.12g} (started {mass0:.12g})" if len(d["mass"])
              else "no steps taken")
        print(f"front position {front_position(final):g}")
        for name in written:
            print(f"wrote {name}")
        return 0
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
