"""Command-line front end.

    sswave simulate    [--config run.ini] --out runs/a [--dump-raw]
    sswave functionals --out runs/a [--names F0,M,F1] [--export-snapshots]
    sswave verify      [--out runs/a] --suite identities|lemmas|monotone|decay|all [--seed 0]
    sswave rate        --out runs/a [--q 1.0]
    sswave sweep       [--config run.ini] --p-list 3.5,4.5 --N-list 3 --out runs/sweep

Every command also takes --verbose.  Each command is one function of
sswave.runio (cmd_<command>), called with one keyword argument per flag,
named after the flag; the defaults are this parser's.  Exit codes: 0 all
good, 1 check failures, 2 usage, config or solver error (or scipy's
QUADPACK extension missing), 3 no blow-up where one was required (or no
fit of one), 4 a worker process of `verify --suite identities|all` or
`sweep` died (runio.EXIT_CODES maps each error to its code).
An error ends in one `error: <Class>: <message>` line on stderr.
SSWAVE_OUT selects the default output root; everything else comes from
flags and the config file; `verify --suite identities|all` and `sweep`
run one worker process per usable CPU, which CPU affinity (taskset) sets.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import runio


def build_parser() -> argparse.ArgumentParser:
    """The `sswave` parser: each subcommand's namespace holds its runio
    function (`run`) and exactly that function's parameters."""
    ap = argparse.ArgumentParser(prog="sswave", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    root = os.environ.get("SSWAVE_OUT", "runs")

    def command(name, help, run, out, config=False, need_out=False):
        """A subcommand that calls run.  Unless out is None, an omitted or
        empty --out is root/out."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        if config:
            p.add_argument("--config", default=None, help="sectioned key=value config file")
        default = os.path.join(root, out) if out else None
        p.add_argument("--out", default=default, required=need_out, help="run directory",
                       type=(lambda v: v or default) if out else None)
        p.add_argument("--verbose", action="store_true")
        return p

    p = command("simulate", "run the radial solver to blow-up", runio.cmd_simulate,
                out="run", config=True)
    p.add_argument("--dump-raw", action="store_true",
                   help="also dump a subsampled (t, r, u, ut) CSV")

    p = command("functionals", "evaluate functional series on a run",
                runio.cmd_functionals, out=None, need_out=True)
    p.add_argument("--names", default=None,
                   help="comma list overriding the config's functional selection")
    p.add_argument("--export-snapshots", action="store_true",
                   help="also dump snapshot node data (s, y, w, ws, gradients)")

    p = command("verify", "identity/monotonicity/decay suites", runio.cmd_verify,
                out=None)
    p.add_argument("--suite", default="all", choices=runio.SUITES)
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the identity battery's random fields")

    p = command("rate", "Theorem-1 quantities and trend verdicts", runio.cmd_rate,
                out=None, need_out=True)
    p.add_argument("--q", type=float, default=1.0)

    p = command("sweep", "(p, N) sweep with aggregate table", runio.cmd_sweep,
                out="sweep", config=True)
    p.add_argument("--p-list", required=True, help="comma list of p values")
    p.add_argument("--N-list", required=True, help="comma list of N values")
    return ap


def main(argv=None) -> int:
    try:
        args = vars(build_parser().parse_args(argv))
    except SystemExit as exc:
        return runio.EXIT_USAGE if exc.code not in (0,) else 0
    del args["command"]
    run = args.pop("run")
    try:
        return run(**args)
    except tuple(runio.EXIT_CODES) as exc:
        msg = str(exc).replace("\n", " ")
        print(f"error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return next(runio.EXIT_CODES[c] for c in type(exc).__mro__
                    if c in runio.EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
