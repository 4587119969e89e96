"""Command-line entry point: one subcommand per operation family.

Every artifact embeds its fully resolved configuration and seed, and
regenerating an artifact from that embedded configuration is byte-identical
(the `replay` subcommand does exactly that).  Exit codes: 0 success with
all checks green, 1 usage error, 2 check failures (reports still written).

Precedence of settings: command-line flags > config file keys > defaults.
The config file is INI-style: keys for a subcommand live in a section of
the same name; a [run] section applies to every subcommand, which skips the
[run] keys it does not take.

Each subcommand imports the modules it runs on the first line of its body,
before it builds a class or an array: without cached bytecode every module
is compiled again in every process, and an import made once arrays exist
adds its compile to the peak resident set.

Importing this module ends with gc.freeze(): the ~20k objects of numpy and
the standard library loaded by then live until the one command exits, and
frozen, no collection walks them, the full ones at shutdown included.  No
library module freezes, so a library caller's collector is left alone.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import sys

from . import classes

USAGE_ERROR = 1
CHECK_FAILURE = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# class / instance construction from resolved options


def _build_class(opts) -> tuple[classes.HypothesisClass, dict]:
    gen = opts["generator"]
    if gen == "thresholds":
        n = opts["points"]
        return classes.threshold_class(n), {"generator": gen, "points": n}
    if gen in ("f1", "f2", "f3"):
        d, s, grid = opts["d"], opts["s"], opts["grid"]
        cls = classes.make_star_class(gen.upper(), d, s, grid=grid)
        desc = {"generator": gen, "d": d, "s": s}
        if gen == "f3":
            desc["grid"] = grid
        return cls, desc
    if gen == "linsep-circle":
        n = opts["points"]
        if n is None:  # erm-sweep defaults --points to None
            raise ValueError("generator 'linsep-circle' needs --points")
        cls = classes.circle_separator_class(n)
        return cls, {"generator": gen, "points": n, "projected": True}
    if gen == "file":
        path = opts["class_file"]
        if not path:
            raise ValueError("generator 'file' needs --class-file")
        return classes.load_class(path), {"generator": gen, "class_file": path}
    raise ValueError(f"unknown generator {gen!r}")


def _target(cls, desc, opts) -> int:
    """The --target row, by default the middle threshold or else row 0."""
    target = opts.get("target")
    if target is not None:
        return target
    return (cls.n_points + 1) // 2 if desc.get("generator") == "thresholds" else 0


def _build_instance(cls, desc, opts) -> classes.MassartInstance:
    return classes.make_massart_instance(cls, _target(cls, desc, opts), opts["h"])


# ---------------------------------------------------------------------------
# option resolution


# class-generator options every subcommand takes; a subcommand's own table
# may override their defaults
_CLASS_DEFAULTS = {"generator": "thresholds", "points": 16, "d": 2, "s": 8, "grid": 8,
                   "class_file": None}

_OPTION_DEFAULTS = {sub: {**_CLASS_DEFAULTS, **own} for sub, own in {
    "measures": {"growth_max": 8, "out": None},
    "packing": {"kind": "global", "gamma": 1, "n": 8, "h": 1.0, "search": "auto",
                "seed": 0, "out": None},
    "fixed-point": {"kind": "loc", "c": 0.5, "h": 1.0, "h_prime": None, "n": 16,
                    "search": "auto", "seed": 0, "format": "json", "out": None},
    "capacity": {"target": None, "eps": "0.25", "out": None},
    "verify-lemmas": {"points": 12, "h": 0.5, "c": 0.25, "n": 12, "trials": 200,
                      "seed": 7, "k_loc": 64.0, "out": None},
    "erm-run": {"target": None, "h": 1.0, "n": 16, "trials": 100,
                "policy": "first_index", "seed": 0, "out": None},
    "erm-sweep": {"points": None, "h_grid": "1.0", "n_grid": "32,64", "trials": 200,
                  "policy": "first_index", "seed": 0, "search": "auto", "out": None},
    "lower-bound-family": {"generator": "f1", "h": 0.5, "n_budget": 32, "trials": 0,
                           "search": "auto", "seed": 0, "out": None},
    "star-theorem": {"generator": "f1", "n": 32, "trials": 500, "seed": 0,
                     "target": None, "out": None},
    "sandwich": {"points": 32, "h": 1.0, "n": 32, "search": "auto", "seed": 0,
                 "out": None},
}.items()}

# keys some subcommand takes: a [run] config key outside this set is a typo
_ALL_KEYS = set().union(*_OPTION_DEFAULTS.values())

_INT_KEYS = {"points", "d", "s", "grid", "growth_max", "gamma", "n", "trials",
             "seed", "n_budget", "target"}
_FLOAT_KEYS = {"h", "c", "h_prime", "k_loc"}
_KIND_NAMES = {int: "an integer", float: "a number", None: "a value"}


def _coerce(sub: str, key: str, value):
    """value as sub's option key's type.  A string parses as on the command
    line; a replayed artifact may also hold a number, but never a bool, nor
    a float for an int option, nor None unless None is the default."""
    if value is None and _OPTION_DEFAULTS[sub][key] is None:
        return value
    kind = int if key in _INT_KEYS else float if key in _FLOAT_KEYS else None
    try:
        if value is None or isinstance(value, bool) or (kind is int and isinstance(value, float)):
            raise TypeError(value)
        value = value if kind is None else kind(value)
    except (TypeError, ValueError):
        raise ValueError(f"--{key.replace('_', '-')} takes "
                         f"{_KIND_NAMES[kind]}, not {value!r}") from None
    if key == "seed" and value < 0:
        raise ValueError(f"--seed takes a nonnegative integer, not {value}")
    return value


def _resolve(sub: str, cli_args: dict, config_path: str | None) -> dict:
    opts = dict(_OPTION_DEFAULTS[sub])
    if config_path:
        import configparser
        ini = configparser.ConfigParser()
        try:  # a missing section header, a duplicate key, a bad interpolation
            with open(config_path, encoding="utf-8") as fh:
                ini.read_file(fh)
            sections = {name: ini.items(name) for name in ("run", sub) if ini.has_section(name)}
        except configparser.Error as exc:
            raise ValueError(f"malformed config file {config_path}: {exc}") from exc
        except FileNotFoundError:
            raise FileNotFoundError(f"config file not found: {config_path}") from None
        except OSError as exc:  # a directory, no read permission
            raise OSError(f"config file cannot be read: {config_path}: {exc.strerror}") from None
        for section, items in sections.items():
            for key, value in items:
                key = key.replace("-", "_")
                if key not in opts:
                    if section == "run" and key in _ALL_KEYS:
                        continue  # another subcommand's key
                    raise ValueError(f"unknown config key {key!r} in [{section}]")
                opts[key] = _coerce(sub, key, value)
    for key, value in cli_args.items():
        if value is not None:
            opts[key] = _coerce(sub, key, value)
    return opts


def _grid(text: str, conv) -> tuple:
    items = tuple(conv(tok) for tok in str(text).split(",") if tok.strip())
    if not items:
        raise ValueError(f"empty grid {text!r}")
    return items


# ---------------------------------------------------------------------------
# artifact writing


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, out: str | None) -> None:
    _write(json.dumps(payload, sort_keys=True, indent=2) + "\n", out)


def _csv(lines: list[str], config: dict) -> str:
    return "\n".join(["# config " + json.dumps(config, sort_keys=True)] + lines) + "\n"


def _emit_csv(lines: list[str], config: dict, out: str | None) -> None:
    _write(_csv(lines, config), out)


# ---------------------------------------------------------------------------
# subcommand bodies (each returns an exit code)


def _cmd_measures(opts, config) -> int:
    from . import measures
    if opts["growth_max"] < 0:
        raise ValueError("growth-max must be >= 0 (0 writes no growth rows)")
    cls, desc = _build_class(opts)
    d = measures.vc_dimension(cls)
    s = measures.star_number(cls)
    growth = []
    for m in range(1, opts["growth_max"] + 1):
        g = measures.growth_function(cls, m)
        growth.append({"m": m, "value": g.value, "exact": g.exact})
    payload = {
        "config": config,
        "results": {
            "class": desc,
            "projected": bool(desc.get("projected", False)),
            "d": d._asdict(),
            "s": {"value": s.value, "exact": s.exact,
                  "witness": {"center": s.witness[0], "points": list(s.witness[1]),
                              "rows": list(s.witness[2])}},
            "growth": growth,
        },
    }
    _emit_json(payload, opts["out"])
    return 0


def _cmd_packing(opts, config) -> int:
    from . import geometry
    cls, desc = _build_class(opts)
    n, gamma = opts["n"], opts["gamma"]
    if opts["kind"] == "global":
        res = geometry.global_packing_number(cls, gamma, n, search=opts["search"],
                                             seed=opts["seed"])
        body = {"kind": "global", "value": res.size, "multiset": list(res.multiset),
                "witness": list(res.packing.witness),
                "mode": "exact" if res.packing.exact else "greedy", "exact": res.exact}
    elif opts["kind"] == "local":
        res = geometry.local_packing_number(cls, gamma, n, opts["h"],
                                            search=opts["search"], seed=opts["seed"])
        body = {"kind": "local", **res._asdict(), "mode": "exact" if res.exact else "greedy"}
    else:
        raise ValueError(f"unknown packing kind {opts['kind']!r}")
    _emit_json({"config": config, "results": {"class": desc, **body}}, opts["out"])
    return 0


def _cmd_fixed_point(opts, config) -> int:
    from . import geometry
    if opts["format"] not in ("json", "csv"):
        raise ValueError(f"unknown fixed-point format {opts['format']!r}")
    cls, desc = _build_class(opts)
    n = opts["n"]
    if opts["kind"] == "star":
        fp = geometry.gamma_star(cls, opts["c"], n, search=opts["search"],
                                 seed=opts["seed"])
    elif opts["kind"] == "loc":
        hp = opts["h"] if opts["h_prime"] is None else opts["h_prime"]
        fp = geometry.gamma_loc(cls, opts["h"], hp, n, search=opts["search"],
                                seed=opts["seed"])
    else:
        raise ValueError(f"unknown fixed-point kind {opts['kind']!r}")
    scan = [{"gamma": r["gamma"], "log_packing": r["log_packing"],
             "satisfied": r["satisfied"], "witness_size": r["witness_size"],
             "mode": "exact" if r["exact"] else "greedy"} for r in fp.scan]
    if opts["format"] == "csv":
        lines = ["gamma,log_packing,satisfied,witness_size,mode"]
        for r in scan:
            lines.append(f"{r['gamma']},{r['log_packing']!r},{int(r['satisfied'])},"
                         f"{r['witness_size']},{r['mode']}")
        lines.append(f"# gamma={fp.gamma} exact={fp.exact}")
        _emit_csv(lines, config, opts["out"])
    else:
        _emit_json({"config": config,
                    "results": {"class": desc, "gamma": fp.gamma, "exact": fp.exact,
                                "params": fp.params, "scan": scan}}, opts["out"])
    return 0


def _cmd_capacity(opts, config) -> int:
    from . import doubling
    cls, desc = _build_class(opts)
    instance = _build_instance(cls, desc, {**opts, "h": 1.0})
    values = []
    for eps in _grid(opts["eps"], float):
        values.append({"eps": eps, "tau": doubling.alexander_capacity(instance, eps)})
    _emit_json({"config": config,
                "results": {"class": desc, "target": instance.target,
                            "capacity": values}}, opts["out"])
    return 0


def _cmd_verify_lemmas(opts, config) -> int:
    from . import processes  # and geometry, for check_localization_bound
    processes._check_k_loc(opts["k_loc"])  # before the checks that run ahead of it
    cls, desc = _build_class(opts)
    instance = _build_instance(cls, desc, opts)
    h = instance.margin
    c, n, trials, seed = opts["c"], opts["n"], opts["trials"], opts["seed"]
    # by keyword: bench/tracing.py reads a fifth positional argument as trials
    reports = [
        processes.check_symmetrization_expectation(instance, 0.0, n, trials=trials, seed=seed),
        processes.check_symmetrization_expectation(instance, 2.0, n, trials=trials, seed=seed),
        processes.check_contraction(instance, c, n, trials, seed),
        processes.check_localization_bound(instance, "halved_difference",
                                           min(c, 0.25), n, trials, seed,
                                           k_loc=opts["k_loc"]),
        # informational: the minoration constant is unspecified, so this
        # report records the fitted ratio and never fails
        processes.sudakov_check(
            processes.LossClassView(cls, instance.target, "halved_difference")
            .domain_values(), trials=max(trials, 500), seed=seed),
    ]
    payload = {"config": config,
               "results": {"class": desc, "checks": [r.as_dict() for r in reports]}}
    _emit_json(payload, opts["out"])
    return 0 if all(r.passed for r in reports) else CHECK_FAILURE


def _cmd_erm_run(opts, config) -> int:
    from .erm import _run_trials, excess_risk
    from .seeding import spawn_seeds
    cls, desc = _build_class(opts)
    instance = _build_instance(cls, desc, opts)
    n, trials, seed = opts["n"], opts["trials"], opts["seed"]
    seeds = spawn_seeds((seed, (t,)) for t in range(trials))
    res = _run_trials(instance, n, seeds, opts["policy"], version_space=True)
    chosen = res.chosen.tolist()
    # excess_risk once per distinct chosen row, not excess_risk_all, whose
    # matmul sums in another order and so can differ in the last bit
    excess = {row: excess_risk(instance, row) for row in set(chosen)}
    lines = ["n,seed,chosen,empirical_risk,excess,version_space_size,dis_mass"]
    lines += [f"{n},{s},{row},{risk!r},{excess[row]!r},{size},{mass!r}"
              for s, row, risk, size, mass in zip(seeds, chosen, res.empirical_risk.tolist(),
                                                  res.version_space_size.tolist(), res.dis_mass)]
    _emit_csv(lines, config, opts["out"])
    return 0


def _cmd_erm_sweep(opts, config) -> int:
    from . import experiments, geometry  # run_rate_sweep runs geometry's fixed points
    h_grid = _grid(opts["h_grid"], float)
    n_grid = _grid(opts["n_grid"], int)
    if opts["generator"] == "thresholds" and opts["points"] is None:
        def factory(h, n):  # the sweep memo keys classes by their patterns
            return classes.threshold_instance(n, h)
    else:
        cls, desc = _build_class(opts)  # built once for every cell

        def factory(h, n):
            return _build_instance(cls, desc, {**opts, "h": h})

    sweep = experiments.SweepConfig(
        instance_factory=factory, h_grid=h_grid, n_grid=n_grid,
        trials=opts["trials"], policy=opts["policy"], seed=opts["seed"],
        search=opts["search"])
    table = experiments.run_rate_sweep(sweep)
    if not opts["out"]:
        _emit_csv(table.to_csv_lines(), config, None)
        return 0
    # gnuplot-ready two-column series per curve, then the CSV; every file is
    # opened before any is written, so a path that cannot be opened leaves
    # no CSV behind
    files = {f"{opts['out']}.h{h:g}.dat": "".join(f"{r['n']} {r['mean_excess']!r}\n"
                                                   for r in table.rows if r["h"] == h)
             for h in h_grid}
    files[opts["out"]] = _csv(table.to_csv_lines(), config)
    with contextlib.ExitStack() as stack:
        handles = [stack.enter_context(open(path, "w", encoding="utf-8")) for path in files]
        for fh, text in zip(handles, files.values()):
            fh.write(text)
    return 0


def _cmd_lower_bound_family(opts, config) -> int:
    from . import geometry, measures  # build_adversarial_family runs both
    from .erm import build_adversarial_family, kl_product
    cls, desc = _build_class(opts)
    h, n_budget, trials, seed = opts["h"], opts["n_budget"], opts["trials"], opts["seed"]
    if trials < 0:
        raise ValueError("trials must be >= 0 (0 runs no experiment)")
    spec = build_adversarial_family(cls, h, n_budget, search=opts["search"], seed=seed)
    kl01 = kl_product(spec, 0, min(1, spec.size - 1), n_budget) if spec.size > 1 else None
    body = {"class": desc, "n_positions": spec.n_positions, "h": h,
            "center_row": spec.center_row, "rows": list(spec.rows),
            "eps": spec.eps, "gamma": spec.gamma,
            "pseudoconvexity": spec.pseudoconvexity,
            "family_size": spec.size, "family_size_with_center": spec.size_with_center,
            "center_in_family": spec.center_in_family, "exact": spec.exact,
            "kl_first_pair": None if kl01 is None else kl01._asdict()}
    if trials > 0:
        from .experiments import lower_bound_report
        body["experiment"] = lower_bound_report(spec, n_budget, trials, seed)
    _emit_json({"config": config, "results": body}, opts["out"])
    return 0


def _cmd_star_theorem(opts, config) -> int:
    from . import experiments
    cls, desc = _build_class(opts)
    rep = experiments.check_star_theorem(cls, opts["n"], opts["trials"],
                                         opts["seed"], target=_target(cls, desc, opts))
    results = {"class": desc, **rep._asdict(), **rep.details}
    del results["details"]  # spread in its place
    _emit_json({"config": config, "results": results}, opts["out"])
    return 0


def _cmd_sandwich(opts, config) -> int:
    from . import experiments, geometry  # check_sandwich runs gamma_loc
    cls, desc = _build_class(opts)
    rep = experiments.check_sandwich(cls, opts["h"], opts["n"],
                                     search=opts["search"], seed=opts["seed"])
    results = {"class": desc, **rep._asdict(), **rep.details}
    del results["details"]  # spread in its place
    _emit_json({"config": config, "results": results}, opts["out"])
    return 0 if rep.explicit_ok else CHECK_FAILURE


_BODIES = {
    "measures": _cmd_measures,
    "packing": _cmd_packing,
    "fixed-point": _cmd_fixed_point,
    "capacity": _cmd_capacity,
    "verify-lemmas": _cmd_verify_lemmas,
    "erm-run": _cmd_erm_run,
    "erm-sweep": _cmd_erm_sweep,
    "lower-bound-family": _cmd_lower_bound_family,
    "star-theorem": _cmd_star_theorem,
    "sandwich": _cmd_sandwich,
}


def _add_options(parser: argparse.ArgumentParser, sub: str) -> None:
    parser.add_argument("--config", default=None, help="INI config file")
    for key in _OPTION_DEFAULTS[sub]:
        flag = "--" + key.replace("_", "-")
        parser.add_argument(flag, default=None)


def _config(sub: str, opts: dict) -> dict:
    """The configuration an artifact embeds: every resolved option but --out."""
    return {"subcommand": sub, "args": {k: v for k, v in sorted(opts.items()) if k != "out"}}


def dispatch(argv) -> int:
    parser = _Parser(prog="locent", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="subcommand", required=True)
    # only the subparser argv names, when it names one: the others cost
    # about 5 ms of argparse work that this command never reads
    names = [*_OPTION_DEFAULTS, "replay"]
    for sub in [argv[0]] if argv and argv[0] in names else names:
        if sub == "replay":
            rp = subs.add_parser("replay", prog="locent replay")
            rp.add_argument("artifact")
            rp.add_argument("--out", default=None)
        else:
            _add_options(subs.add_parser(sub, prog=f"locent {sub}"), sub)

    ns = parser.parse_args(argv)
    try:
        if ns.subcommand == "replay":
            return _replay(ns.artifact, ns.out)
        cli_args = {k: v for k, v in vars(ns).items() if k not in ("subcommand", "config")}
        opts = _resolve(ns.subcommand, cli_args, ns.config)
        return _BODIES[ns.subcommand](opts, _config(ns.subcommand, opts))
    except (ValueError, OSError) as exc:  # ClassFormatError, PatternCountError too
        sys.stderr.write(f"locent {ns.subcommand}: error: {exc}\n")
        return USAGE_ERROR


def _replay(artifact_path: str, out: str | None) -> int:
    """Regenerate an artifact from its embedded configuration."""
    with open(artifact_path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if first.startswith("# config "):
            config = json.loads(first[len("# config "):])
        else:
            fh.seek(0)
            payload = json.load(fh)
            config = payload.get("config") if isinstance(payload, dict) else None
    sub = config.get("subcommand") if isinstance(config, dict) else None
    if not (isinstance(sub, str) and sub in _BODIES and isinstance(config.get("args"), dict)):
        raise ValueError(f"{artifact_path} embeds no config with a known subcommand and args")
    unknown = sorted(set(config["args"]) - set(_OPTION_DEFAULTS[sub]))
    if unknown:
        raise ValueError(f"unknown {sub} option(s) in the embedded config: {', '.join(unknown)}")
    opts = dict(_OPTION_DEFAULTS[sub])
    opts.update((key, _coerce(sub, key, value)) for key, value in config["args"].items())
    opts["out"] = out
    return _BODIES[sub](opts, _config(sub, opts))


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


gc.freeze()  # last: the module docstring says why

if __name__ == "__main__":
    main()
