"""Command-line front end.

    sswave simulate    [--config run.ini] --out runs/a [--dump-raw]
    sswave functionals --out runs/a [--names F0,M,F1] [--export-snapshots]
    sswave verify      [--out runs/a] --suite identities|lemmas|monotone|decay|all [--seed 0]
    sswave rate        --out runs/a [--q 1.0]
    sswave sweep       [--config run.ini] --p-list 3.5,4.5 --N-list 3 --out runs/sweep [--jobs 2]

Every command also takes --verbose.  Exit codes: 0 all good, 1 check
failures, 2 usage, config or solver error (or scipy's QUADPACK extension
missing), 3 no blow-up where one was required (or no fit of one).  An
error ends in one `error: <Class>: <message>` line on stderr.
SSWAVE_OUT selects the default output root; everything else comes from
flags and the config file.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import runio
from .functionals import QuadpackError
from .ode import FitError
from .runio import EXIT_NO_BLOWUP, EXIT_USAGE, ConfigError, NoBlowupError
from .solver import SolverError

EXIT_CODES = {ConfigError: EXIT_USAGE, SolverError: EXIT_USAGE,
              QuadpackError: EXIT_USAGE,
              NoBlowupError: EXIT_NO_BLOWUP, FitError: EXIT_NO_BLOWUP}


def _default_out(sub: str) -> str:
    root = os.environ.get("SSWAVE_OUT", "runs")
    return os.path.join(root, sub)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sswave", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, help, config=False, need_out=False):
        p = sub.add_parser(name, help=help)
        if config:
            p.add_argument("--config", default=None, help="sectioned key=value config file")
        p.add_argument("--out", default=None, required=need_out, help="run directory")
        p.add_argument("--verbose", action="store_true")
        return p

    p = command("simulate", "run the radial solver to blow-up", config=True)
    p.add_argument("--dump-raw", action="store_true",
                   help="also dump a subsampled (t, r, u, ut) CSV")

    p = command("functionals", "evaluate functional series on a run", need_out=True)
    p.add_argument("--names", default=None,
                   help="comma list overriding the config's functional selection")
    p.add_argument("--export-snapshots", action="store_true",
                   help="also dump snapshot node data (s, y, w, ws, gradients)")

    p = command("verify", "identity/monotonicity/decay suites")
    p.add_argument("--suite", default="all", choices=runio.SUITES)
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the identity battery's random fields")

    p = command("rate", "Theorem-1 quantities and trend verdicts", need_out=True)
    p.add_argument("--q", type=float, default=1.0)

    p = command("sweep", "(p, N) sweep with aggregate table", config=True)
    p.add_argument("--p-list", required=True, help="comma list of p values")
    p.add_argument("--N-list", required=True, help="comma list of N values")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (>= 1), never more than points")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        if ns.command == "simulate":
            return runio.cmd_simulate(ns.config, ns.out or _default_out("run"),
                                      dump_raw=ns.dump_raw, verbose=ns.verbose)
        if ns.command == "functionals":
            return runio.cmd_functionals(ns.out, selection=ns.names,
                                         dump_snapshots=ns.export_snapshots,
                                         verbose=ns.verbose)
        if ns.command == "verify":
            return runio.cmd_verify(ns.out, ns.suite, seed=ns.seed,
                                    verbose=ns.verbose)
        if ns.command == "rate":
            return runio.cmd_rate(ns.out, ns.q, verbose=ns.verbose)
        try:
            p_list = [float(v) for v in ns.p_list.split(",") if v]
            N_list = [int(v) for v in ns.N_list.split(",") if v]
        except ValueError as exc:
            raise ConfigError(f"bad --p-list/--N-list: {exc}") from exc
        return runio.cmd_sweep(ns.config, p_list, N_list,
                               ns.out or _default_out("sweep"),
                               jobs=ns.jobs, verbose=ns.verbose)
    except tuple(EXIT_CODES) as exc:
        msg = str(exc).replace("\n", " ")
        print(f"error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return next(EXIT_CODES[c] for c in type(exc).__mro__ if c in EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
