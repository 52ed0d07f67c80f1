"""Command-line surface.

One parser takes the command, `validate`, `pmf`, `simulate`,
`survival`, `regime`, `limits` or `verify`, and the options, before
or after it.  Options resolve in the order command line > config file
(plain key=value lines, '#' comments) > built-in defaults; a flag's
text and a config line's are converted by one function, so they are
checked alike and their errors name the option.  Every run with --out
also writes `<out>.manifest` holding the fully resolved configuration,
so a run can be reproduced byte-identically with `--config <manifest>`.

Exit codes: 0 success, 1 verification failure, 2 configuration error;
every error, an unknown flag or command too, is one line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from . import __version__
from .errors import GwimmError
from .laws import (LawParams, immigration_pmf, initial_pmf, offspring_pmf,
                   offspring_pgf)
from .limits import (THEOREMS, conditional_laplace_exact, convergence_sweep,
                     lambda_limit)
from .pgf import _power, epsilon_term, q_iterate
from .renewal import (build_renewal, classify_regime, dp_distribution,
                      exact_survival, fit_tail, u_dp_curve)
from .simulate import Model, estimate_survival, simulate
from .rng import stream

# every option: its type, or its tuple of allowed values, and its default.
# Only options whose default is None accept the value "none".
_OPTIONS = {
    "nu": (float, 1.0), "theta": (float, 1.0), "delta": (float, 1.0),
    "kappa0": (float, 1.0), "kappa1": (float, 0.5), "kappa2": (float, 1.0),
    "seed": (int, 0), "threads": (int, 1), "reps": (int, 100_000),
    "horizon": (int, 50), "nmax": (int, 1000), "cap": (int, 10 ** 9),
    "M": (int, 4096),
    "model": (tuple(m.value for m in Model), "stopped"),
    "law": (("offspring", "immigration", "initial"), "offspring"),
    "theorem": (THEOREMS, "balanced_strong"),
    "s_grid": (str, "0.5,1,2"), "n_grid": (str, "1000,10000"),
    "format": (("csv", "report"), None), "out": (str, None),
}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    command: str
    values: dict

    @property
    def params(self) -> LawParams:
        return LawParams(**{f.name: self.values[f.name]
                            for f in dataclasses.fields(LawParams)})

    def __getattr__(self, name):
        try:
            return self.values[name]
        except KeyError:
            raise AttributeError(name)


def _read_config(path: str) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def _cast(key: str, kind, raw: str):
    try:
        return kind(raw)
    except ValueError:
        raise ValueError(f"option {key} needs {kind.__name__} values, "
                         f"got {raw!r}") from None


def _config_value(key: str, raw: str):
    """The value of option `key` from its text, a flag's or a config
    line's alike."""
    kind, default = _OPTIONS[key]
    if raw == "none":
        if default is not None:
            raise ValueError(f"option {key} cannot be none")
        return None
    if isinstance(kind, tuple):
        if raw not in kind:
            raise ValueError(f"option {key} must be one of "
                             f"{', '.join(kind)}, got {raw!r}")
        return raw
    return _cast(key, kind, raw)


def _resolve(command: str, cli: dict, config_path: str | None) -> RunConfig:
    file_vals = _read_config(config_path) if config_path else {}
    file_vals.pop("command", None)     # informational echo in manifests
    values = {}
    for key, (_kind, default) in _OPTIONS.items():
        raw = file_vals.pop(key, None)
        if cli.get(key) is not None:
            raw = cli[key]
        values[key] = default if raw is None else _config_value(key, raw)
    if file_vals:
        raise ValueError(f"unknown config keys: {sorted(file_vals)}")
    return RunConfig(command=command, values=values)


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _manifest_lines(cfg: RunConfig) -> list[str]:
    lines = [f"# gwimm {__version__} manifest",
             f"# python {sys.version.split()[0]}, numpy {np.__version__}",
             f"command={cfg.command}"]
    for key in sorted(cfg.values):
        val = cfg.values[key]
        lines.append(f"{key}={'none' if val is None else _fmt(val)}")
    return lines


def _write_out(cfg: RunConfig, body: list[str]) -> None:
    text = "\n".join(body) + "\n"
    manifest = "\n".join(_manifest_lines(cfg)) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        with open(cfg.out + ".manifest", "w", encoding="utf-8") as fh:
            fh.write(manifest)
    else:
        sys.stdout.write(text)
        sys.stderr.write(manifest)


def _parse_grid(cfg: RunConfig, key: str, cast):
    spec = cfg.values[key]
    vals = [_cast(key, cast, tok) for tok in spec.split(",") if tok.strip()]
    if not vals:
        raise ValueError(f"empty grid spec {spec!r}")
    return vals


# ---------------------------------------------------------------------------
# commands


def cmd_validate(cfg: RunConfig) -> list[str]:
    p = cfg.params       # raises on invalid input before we get here
    rep = classify_regime(p)
    lines = [f"{f.name}: {_fmt(getattr(p, f.name))}"
             for f in dataclasses.fields(p)]
    lines += [f"sigma: {_fmt(rep.sigma)}",
              f"regime: {rep.regime_id}",
              f"offspring_mean: {_fmt(1.0)}",
              "valid: yes"]
    return lines


def cmd_pmf(cfg: RunConfig) -> list[str]:
    p = cfg.params
    table = {"offspring": offspring_pmf, "immigration": immigration_pmf,
             "initial": initial_pmf}
    pmf = table[cfg.law](p, cfg.nmax)
    lines = [f"# truncation_mass={_fmt(pmf.truncation_mass)}", "k,p"]
    lines += [f"{k},{_fmt(float(v))}" for k, v in enumerate(pmf.probs)]
    return lines


def cmd_simulate(cfg: RunConfig) -> list[str]:
    p = cfg.params
    tr = simulate(p, cfg.model, cfg.horizon, cap=cfg.cap,
                  rng=stream(cfg.seed, 0))
    lines = [f"# life={'none' if tr.life is None else tr.life}",
             f"# censoring={tr.censoring or 'none'}", "n,value"]
    lines += [f"{n},{int(v)}" for n, v in enumerate(tr.values)]
    return lines


def cmd_survival(cfg: RunConfig) -> list[str]:
    # every column is P(X_n > 0 | X_0 > 0) under cfg.model: the Monte Carlo
    # starts from the kappa0 = 1 law, as the DP does; u_renewal is the
    # exact curve of that model
    p = cfg.params
    if cfg.horizon < 1:          # the DP steps at least one generation
        raise ValueError("horizon must be >= 1")
    u = exact_survival(p, cfg.model, cfg.horizon)
    lo, hi, _dist = u_dp_curve(p, cfg.model, cfg.horizon, M=cfg.M)
    bs = estimate_survival(dataclasses.replace(p, kappa0=1.0), cfg.model,
                           cfg.horizon, cfg.reps, cfg.seed,
                           threads=cfg.threads, cap=cfg.cap)
    uhat = bs.survival()
    se = bs.survival_se()
    lines = [f"# model={cfg.model}", "# given=X_0>0",
             "n,u_renewal,dp_lower,dp_upper,u_mc,mc_se,censored"]
    for n in range(cfg.horizon + 1):
        lines.append(",".join([
            str(n), _fmt(float(u[n])), _fmt(float(lo[n])),
            _fmt(float(hi[n])), _fmt(float(uhat[n])), _fmt(float(se[n])),
            str(int(bs.censored_counts[n]))]))
    return lines


def cmd_regime(cfg: RunConfig) -> list[str]:
    p = cfg.params
    rep = classify_regime(p)
    if cfg.nmax >= 1000:
        rep = fit_tail(build_renewal(p, cfg.nmax).u, rep)
    lines = [f"regime: {rep.regime_id}",
             f"alpha: {'none' if rep.alpha is None else _fmt(rep.alpha)}",
             f"correction: {rep.correction}",
             f"sigma: {_fmt(rep.sigma)}"]
    if rep.fitted_alpha is not None:
        lines.append(f"fitted_alpha: {_fmt(rep.fitted_alpha)}")
    for key in sorted(rep.constants):
        lines.append(f"{key}: {_fmt(rep.constants[key])}")
    return lines


def cmd_limits(cfg: RunConfig) -> list[str]:
    p = cfg.params
    chk = convergence_sweep(p, cfg.theorem,
                            _parse_grid(cfg, "s_grid", float),
                            _parse_grid(cfg, "n_grid", int))
    lines = [f"# theorem={chk.theorem_id}",
             f"# monotone={'yes' if chk.monotone() else 'no'}",
             "n,s,computed,limit,deviation"]
    for i, n in enumerate(chk.n_grid):
        for j, s in enumerate(chk.s_grid):
            lines.append(",".join([
                str(int(n)), _fmt(float(s)), _fmt(float(chk.computed[i, j])),
                _fmt(float(chk.limit[j])),
                _fmt(float(chk.deviations[i, j]))]))
    return lines


def _verify_checks(cfg: RunConfig):
    """Deterministic invariant battery; yields (name, ok, detail)."""
    canon = LawParams(nu=1.0, theta=1.0, delta=1.0, kappa0=1.0,
                      kappa1=0.5, kappa2=1.0)
    u1 = 0.5 * math.exp(-1.0) + 1.0 - math.exp(-1.0)
    u2 = (0.375 * math.exp(-1.5) + (1.0 - math.exp(-1.0)) * u1
          + math.exp(-1.0) - math.exp(-1.5))

    rt = build_renewal(canon, 50)
    dev = max(abs(rt.u[1] - u1), abs(rt.u[2] - u2))
    yield "renewal_hand_values", dev < 1e-12, _fmt(dev)
    mono = bool(np.all(np.diff(rt.u) <= 0.0)) and rt.u[0] == 1.0
    yield "renewal_monotone", mono, _fmt(float(rt.u[50]))
    tele = abs(math.fsum(rt.a[:50].tolist()) + rt.gamma0[50] - 1.0)
    yield "renewal_telescoping", tele < 1e-12, _fmt(tele)

    dp = dp_distribution(canon, "stopped", 1, M=256)
    pin = max(abs(dp.pi[1, 0] - 0.5 * math.exp(-1.0)),
              abs(dp.pi[1, 1] - 0.5 * math.exp(-1.0)))
    yield "dp_one_step_pins", pin < 1e-12, _fmt(pin)
    frac = LawParams(nu=0.95, theta=1.0, delta=0.9, kappa0=0.5,
                     kappa1=0.5, kappa2=0.3)
    # each exact curve inside its DP bracket, padded by 1e-9 for roundoff;
    # the detail is its largest distance outside the bracket
    for name, p, model, n, M in (
            ("dp_bracket_contains_renewal", canon, "stopped", 25, 512),
            ("dp_bracket_contains_exact_z", canon, "z", 25, 512),
            ("dp_bracket_contains_exact_gated", canon, "gated", 25, 512),
            ("dp_fractional_bracket", frac, "stopped", 20, 1024)):
        u = exact_survival(p, model, n)
        lo, hi, _ = u_dp_curve(p, model, n, M=M)
        inside = bool(np.all((u >= lo - 1e-9) & (u <= hi + 1e-9)))
        yield name, inside, _fmt(float(np.max(np.r_[lo - u, u - hi, 0.0])))

    q3 = float(_power(q_iterate(canon, 0.0, 3), 1.0)[3])
    yield "q_iteration_pin", abs(q3 - 0.3046875) < 1e-15, _fmt(q3)
    # each step adds kappa1*nu*[1, C0] to q^-nu, C0 = (1 - kappa1)^(-nu-1),
    # which brackets log q_n; q_n itself underflows float64 long before
    tiny = LawParams(0.005, 0.0025, 0.0025, 1.0, 0.5, 0.5)
    lq = float(q_iterate(tiny, 0.0, 10 ** 5)[10 ** 5])
    lo, hi = (-math.log1p(1e5 * 0.0025 * c) / 0.005 for c in (2 ** 1.005, 1))
    yield "q_log_enclosure", lo <= lq <= hi, _fmt(lq)
    eps = epsilon_term(canon, 0.0, 3)
    yield "epsilon_pin", abs(eps + 0.23828125) < 1e-15, _fmt(float(eps))

    r3 = LawParams(nu=1.0, theta=1.0, delta=1.0, kappa0=1.0,
                   kappa1=0.5, kappa2=0.25)
    qerr = max(abs(lambda_limit(r3, s) - 1.0 / (1.0 + s))
               for s in (0.25, 1.0, 3.0))
    yield "lambda_quadrature_closed_form", qerr < 1e-8, _fmt(qerr)

    n1 = conditional_laplace_exact(canon, 1, 2.0, "by_qn")
    hand = (math.exp(-(1.0 - math.exp(-1.0)))
            * offspring_pgf(canon, math.exp(-1.0)) - (1.0 - u1)) / u1
    yield "conditional_transform_pin", abs(n1 - hand) < 1e-12, _fmt(n1)

    bs = estimate_survival(canon, "stopped", 2, 100_000, cfg.seed,
                           threads=cfg.threads)
    z1 = abs(bs.survival()[1] - u1) / bs.survival_se()[1]
    z2 = abs(bs.survival()[2] - u2) / bs.survival_se()[2]
    yield "mc_survival_pins", max(z1, z2) < 4.0, \
        f"{_fmt(float(z1))},{_fmt(float(z2))}"
    # nu < 1 stopped chain from X_0 = 1 against the renewal u_n at
    # n = 1..4; a population past the cap 1e4 counts as alive, and it
    # could die out within 4 generations only if nearly all of its
    # individuals had no offspring (each with chance kappa1 = 1/2)
    halves = LawParams(nu=0.5, theta=0.5, delta=1.0, kappa0=1.0,
                       kappa1=0.5, kappa2=0.7)
    bs = estimate_survival(halves, "stopped", 4, 100_000, cfg.seed,
                           threads=cfg.threads, cap=10 ** 4)
    z = float(np.max(np.abs(bs.survival() - build_renewal(halves, 4).u)[1:]
                     / bs.survival_se()[1:]))
    yield "mc_fractional_survival", z < 4.0, _fmt(z)


# the last line of a failed `verify`, which makes the run exit 1
_FAILED = "result: FAIL"


def cmd_verify(cfg: RunConfig) -> list[str]:
    lines = []
    all_ok = True
    for name, ok, detail in _verify_checks(cfg):
        lines.append(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
        all_ok &= ok
    lines.append("result: PASS" if all_ok else _FAILED)
    return lines


# ---------------------------------------------------------------------------
# argument parsing


_COMMANDS = {
    "validate": (cmd_validate, "report"),
    "pmf": (cmd_pmf, "csv"),
    "simulate": (cmd_simulate, "csv"),
    "survival": (cmd_survival, "csv"),
    "regime": (cmd_regime, "report"),
    "limits": (cmd_limits, "csv"),
    "verify": (cmd_verify, "report"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    # every option is read as text and converted by `_config_value`, as
    # a config line is; a choice option lists its values in the help
    parser = _Parser(
        prog="gwimm",
        description="critical branching with heavy-tailed immigration, "
                    "stopped at zero")
    parser.add_argument("--version", action="version",
                        version=f"gwimm {__version__}")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", default=None)
    for key, (kind, _default) in _OPTIONS.items():
        metavar = ("{" + ",".join(kind) + "}" if isinstance(kind, tuple)
                   else None)
        parser.add_argument("--" + key.replace("_", "-"), dest=key,
                            metavar=metavar, default=None)
    return parser


def _reformat(lines: list[str], natural: str, wanted: str | None) -> list[str]:
    if wanted is None or wanted == natural:
        return lines
    if wanted == "report":        # align csv columns
        rows = [ln.split(",") for ln in lines if not ln.startswith("#")]
        widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
        head = [ln for ln in lines if ln.startswith("#")]
        return head + ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
                       for r in rows]
    return [ln.replace(": ", ",", 1) for ln in lines]


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _resolve(args.command, vars(args), args.config)
        fn, natural = _COMMANDS[args.command]
        lines = fn(cfg)
        _write_out(cfg, _reformat(lines, natural, cfg.values["format"]))
        return 1 if lines[-1] == _FAILED else 0
    except (GwimmError, ValueError, OSError, MemoryError) as exc:
        sys.stderr.write(f"gwimm: error: {exc or type(exc).__name__}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
