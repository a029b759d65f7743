"""Workload generator: the seed picks the inputs, the stages stay fixed.

Only pipeline_fine_angular varies with the seed: for every seed but 0 it
draws p within +-0.1 of nominal and the seeded blow-up time T in [0.9, 1.1].
The other two run the same inputs for every seed:

- pipeline_radial runs the README default config.  Its decay suite is
  marginal there: moving p by a few hundredths or T by a few percent flips
  window_energy* verdicts to FAIL on about 4 in 10 draws (selfcheck.py
  runs one of them, p=4.1 T=0.9, and counts its failures), and a
  benchmark workload must run without failing operations.
- identity_battery runs `verify --seed 0`, the CLI default.  The seed
  draws the 60 closed-form fields, and their cost alone spans 4.0-6.9 s
  over seeds 0-9 (an interquartile range of 21% of the median), more than
  any bound the benchmark may set.

The program only sees the generated config text and the CLI arguments."""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

NAMES = ("pipeline_radial", "pipeline_fine_angular", "identity_battery")


@dataclass
class Workload:
    name: str
    seed: int
    config_text: str | None             # None: the stages take no config
    stages: list = field(default_factory=list)   # (label, kind, argv-after-sswave)

    @property
    def config_sha256(self) -> str | None:
        if self.config_text is None:
            return None
        return hashlib.sha256(self.config_text.encode()).hexdigest()

    @property
    def input_sha256(self) -> str:
        """Identity of everything the program receives; keys the references."""
        blob = json.dumps([self.config_text, self.stages], sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    def record(self) -> dict:
        return {"name": self.name, "seed": self.seed,
                "config_text": self.config_text,
                "config_sha256": self.config_sha256,
                "input_sha256": self.input_sha256,
                "stages": [[label, kind, argv] for label, kind, argv in self.stages]}


def _draw(seed: int, p_nominal: float) -> tuple[float, float]:
    if seed == 0:
        return p_nominal, 1.0
    rng = random.Random(seed)
    p = p_nominal + rng.uniform(-0.1, 0.1)
    T = rng.uniform(0.9, 1.1)
    return round(p, 6), round(T, 6)


def _config(sections: dict) -> str:
    lines = []
    for sec, vals in sections.items():
        lines.append(f"[{sec}]")
        lines += [f"{k} = {v}" for k, v in vals.items()]
        lines.append("")
    return "\n".join(lines)


def pipeline_config(p: float, T: float, N: int, nr: int, n_angular: int,
                    u_cap: str | None = None) -> str:
    solver = {"nr": nr, "T": repr(T)}
    if u_cap is not None:
        solver["u_cap"] = u_cap
    return _config({"exponents": {"p": repr(p), "N": N},
                    "solver": solver,
                    "similarity": {"n_angular": n_angular}})


def pipeline_stages(suites) -> list:
    stages = [("simulate", "simulate", ["simulate", "--config", "{config}", "--out", "{run}"]),
              ("functionals", "functionals", ["functionals", "--out", "{run}"])]
    stages += [(f"verify_{s}", "verify", ["verify", "--suite", s, "--out", "{run}"])
               for s in suites]
    stages.append(("rate", "rate", ["rate", "--out", "{run}"]))
    return stages


def make(name: str, seed: int) -> Workload:
    """The workload `name` for `seed`; ValueError for an unknown name."""
    if name == "pipeline_radial":
        return Workload(name, seed, pipeline_config(4.0, 1.0, N=3, nr=1024, n_angular=1),
                        pipeline_stages(("lemmas", "monotone", "decay")))
    if name == "pipeline_fine_angular":
        p, T = _draw(seed, 7.0)
        return Workload(name, seed, pipeline_config(p, T, N=2, nr=4096, n_angular=16),
                        pipeline_stages(("lemmas",)))
    if name == "identity_battery":
        return Workload(name, seed, None,
                        [("verify_identities", "verify",
                          ["verify", "--suite", "identities", "--seed", "0",
                           "--out", "{run}"])])
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
